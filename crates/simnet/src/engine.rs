//! The deterministic discrete-event engine.
//!
//! Models exactly what §5.2 of the paper models and nothing more: message
//! propagation latency (from a [`Topology`]) plus queueing on the
//! receiver's inbound link at a configurable capacity. CPU and memory
//! costs of query processing are ignored, and cross-traffic does not
//! exist, matching the paper's two stated simplifications.
//!
//! # One engine, two run loops
//!
//! [`Sim`] owns one `EngineCore` per shard — event queue, slab, node
//! slots, traffic stats — and a [`ShardMap`] assigning nodes to cores.
//! [`Sim::run_until`] selects its loop from the one thing it can
//! observe, the core count: a single core runs the sequential loop
//! inline on the caller's thread (no thread, no channel, no lookahead
//! requirement, no allocation); several cores run the conservative
//! time-window barrier of [`crate::sharded`]. Both loops stay because
//! each is the only one that serves its side: the barrier needs a
//! positive minimum link latency and pays a thread hand-off per window,
//! the inline loop cannot use a second CPU.
//!
//! # Shard-invariant event ordering
//!
//! Events are ordered by a key that is a pure function of event
//! *content*, not of engine scheduling:
//!
//! ```text
//! (at, origin, oseq)
//! ```
//!
//! where `origin` is the node whose handler created the event and `oseq`
//! is that node's private monotone counter. Because each node's counter
//! advances only when the node itself runs, and each node runs the same
//! dispatch sequence under any partitioning (see the window invariant in
//! `sharded.rs`), this key is identical no matter how nodes are spread
//! across cores — which is what makes every shard count bit-identical
//! to the single-core run.
//!
//! The same reasoning forces *routing* (the flow-level bandwidth model,
//! which reserves the receiver's inbound link in send order) to happen in
//! key order rather than in handler-emission order: inter-node sends are
//! buffered as `SendKey`s and flushed key-sorted once the engine moves
//! past their send instant. Per-node RNG streams are seeded from the run
//! seed and the `NodeId` alone, so a node draws the same randomness under
//! any shard map.
//!
//! # A message is stored once
//!
//! A send's message goes into its event-slab slot when the handler
//! emits it — [`Ctx`] files each send and timer into the core's `Events`
//! as it is called — and leaves that slot when it is delivered (or
//! dropped at admission). What waits for routing is a 32-byte key naming
//! the slot; routing reads the wire size there and queues the same slot
//! as the delivery. Only a send that crosses to another core leaves its
//! slot early, as a `SendRec` built by `EngineCore::drain_outbound`, and
//! is filed into a slot of the receiving core when that core routes it.
//! Each popped event runs one handler, in key order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::app::{App, Ctx};
use crate::sharded::{run_windowed, ShardMap};
use crate::stats::NetStats;
use crate::time::{Dur, Time};
use crate::topology::Topology;
use crate::{NodeId, Wire};

/// Network-level configuration of a simulation run.
#[derive(Clone)]
pub struct NetConfig {
    /// Pairwise propagation latency.
    pub topology: Arc<dyn Topology>,
    /// Inbound link capacity per node in bits/second; `None` = infinite
    /// bandwidth (the §5.5.1 latency-only scenario).
    pub inbound_bps: Option<f64>,
    /// Master seed; each node's RNG derives from it and the node id
    /// alone, so RNG streams are per-node and engine-independent.
    pub seed: u64,
}

impl NetConfig {
    /// The paper's baseline: full mesh, 100 ms latency, 10 Mbps inbound.
    pub fn paper_baseline(seed: u64) -> Self {
        NetConfig {
            topology: Arc::new(crate::topology::FullMesh::paper_default()),
            inbound_bps: Some(10e6),
            seed,
        }
    }

    /// Full mesh with infinite bandwidth (§5.5.1 "Infinite Bandwidth").
    pub fn latency_only(seed: u64) -> Self {
        NetConfig {
            inbound_bps: None,
            ..Self::paper_baseline(seed)
        }
    }
}

enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, token: u64 },
}

/// Log2 of the calendar-bucket width in µs: 2^14 µs ≈ 16.4 ms.
const BUCKET_BITS: u32 = 14;
/// Ring size: 4096 buckets ≈ 67 s of horizon, comfortably past the
/// dominant timer periods (soft-state renewal, heartbeats, epochs).
const N_BUCKETS: usize = 4096;

fn bucket_of(at: Time) -> u64 {
    at.as_micros() >> BUCKET_BITS
}

/// A queue entry: the ordering key `(at, origin, oseq)` plus the index
/// of the event payload in the [`EventSlab`]. The key is the total order
/// on events that is invariant under sharding: time first, then the node
/// that *created* the event, then that node's private event counter.
/// `(origin, oseq)` is unique, so Ord, derived on field order, is decided
/// by the key and `slot` never ties. `origin` and `slot` share a word.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvRef {
    at: Time,
    origin: NodeId,
    oseq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<EvRef>() == 24);

/// Slots in one [`EventSlab`] chunk. A chunk is the slab's unit of
/// growth and is never moved or freed, so the slab holds the most events
/// ever in flight rounded up to one chunk. 1 024 slots make a chunk of
/// ~150 KB for a 152-byte payload: a 10^4-node run's burst of tens of
/// thousands of events costs a few dozen allocations, while an engine
/// that never holds more than a handful of events pays for one chunk.
const CHUNK: usize = 1_024;

/// An end-of-chain index: no slot, no block.
const NIL: u32 = u32::MAX;

/// A slab slot: an event payload, or a link in the chain of free slots.
enum SlabSlot<M> {
    Live(EventKind<M>),
    Free { next: u32 },
}

/// Pooled event payloads, in fixed chunks of [`CHUNK`] slots that never
/// move: a freed slot goes on a free chain and is the next one handed
/// out (last freed, first reused), and only when no slot is free does
/// the next new index open, a new chunk at each chunk boundary. So the
/// steady-state hot path (timer fires, re-arms; message delivered,
/// reply sent) does not touch the allocator, growth copies nothing, and
/// resident slots are the most events ever in flight rounded up to one
/// chunk.
struct EventSlab<M> {
    chunks: Vec<Box<[SlabSlot<M>]>>,
    /// The most recently freed slot, or `NIL`.
    free: u32,
    /// Slots ever handed out: the next new index.
    opened: u32,
    /// Slots holding a payload.
    live: usize,
}

impl<M> EventSlab<M> {
    fn new() -> Self {
        EventSlab {
            chunks: Vec::new(),
            free: NIL,
            opened: 0,
            live: 0,
        }
    }

    fn slot_mut(&mut self, i: u32) -> &mut SlabSlot<M> {
        &mut self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn alloc(&mut self, kind: EventKind<M>) -> u32 {
        self.live += 1;
        let i = if self.free != NIL {
            let i = self.free;
            let SlabSlot::Free { next } = *self.slot_mut(i) else {
                unreachable!("the free chain holds free slots");
            };
            self.free = next;
            i
        } else {
            let i = self.opened;
            self.opened += 1;
            if i as usize / CHUNK == self.chunks.len() {
                let chunk = (0..CHUNK).map(|_| SlabSlot::Free { next: NIL });
                self.chunks.push(chunk.collect());
            }
            i
        };
        *self.slot_mut(i) = SlabSlot::Live(kind);
        i
    }

    /// Slots holding a payload.
    fn live(&self) -> usize {
        self.live
    }

    fn take(&mut self, i: u32) -> EventKind<M> {
        let next = self.free;
        let SlabSlot::Live(kind) = std::mem::replace(self.slot_mut(i), SlabSlot::Free { next })
        else {
            panic!("slab slot {i} is not live");
        };
        self.free = i;
        self.live -= 1;
        kind
    }

    fn get(&self, i: u32) -> &EventKind<M> {
        match &self.chunks[i as usize / CHUNK][i as usize % CHUNK] {
            SlabSlot::Live(kind) => kind,
            SlabSlot::Free { .. } => panic!("slab slot {i} is not live"),
        }
    }

    /// Bytes of slots the slab holds, live or free.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.chunks.len() * CHUNK * std::mem::size_of::<SlabSlot<M>>()
    }
}

/// Queue entries in one calendar block. A block is the ring's unit of
/// storage: a bucket is a chain of blocks, all full but its last, so a
/// populated bucket leaves at most one block partly empty. 64 entries
/// (1.5 KB) keep that slack small next to the tens of thousands of
/// events a 10^4-node tick or a publish burst queues, while a
/// 10 000-event bucket is a chain of 157 blocks rather than 10 000 links.
const BLOCK: usize = 64;

/// A fixed-capacity run of queue entries in a bucket's chain, or in the
/// pool's chain of unused blocks. Its buffer is allocated once with room
/// for [`BLOCK`] entries and is never grown.
struct Block {
    evs: Vec<EvRef>,
    next: u32,
}

/// A ring bucket: the first and last of its blocks, `NIL` when empty.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

const EMPTY: Chain = Chain {
    head: NIL,
    tail: NIL,
};

/// Two-level calendar queue: a ring of 16.4 ms buckets covering the
/// next ~67 s, plus an overflow heap for events beyond the horizon.
/// Only the *current* bucket is kept sorted, in its own buffer
/// (descending, popped from the back); the other ring buckets are
/// unsorted chains of [`BLOCK`]-entry blocks, so the common enqueue is
/// an O(1) append instead of the binary heap's O(log n).
///
/// Invariants: every ring event's absolute bucket lies in
/// `(cursor, cursor + N_BUCKETS)`, and the cursor's own events are in
/// `current`; every `far` event's bucket lies at or beyond
/// `cursor + N_BUCKETS`; all buckets below `cursor` are empty. `peek`
/// is read-only — the cursor commits forward only in `pop`, so pushes
/// racing a raised wall clock (e.g. after `run_until` advanced `now`
/// past the last event) still land correctly.
///
/// Capacity follows the events, not the buckets: every block comes from
/// one pool, and when the cursor reaches a bucket its entries are copied
/// into `current` and its blocks go back to the pool. A new block is
/// made only when the pool is empty, so the blocks resident are those
/// for the most events ever queued in the ring at once plus one partial
/// block per populated bucket, and `current` holds the largest bucket
/// the cursor has reached. Which block an entry sits in cannot show in
/// the pop order: a bucket is sorted when it becomes current.
struct CalendarQueue {
    ring: Vec<Chain>,
    /// Every block made, each in one bucket's chain or in the pool.
    blocks: Vec<Block>,
    /// The pool: the chain of unused blocks.
    free: u32,
    /// The cursor's bucket, sorted descending.
    current: Vec<EvRef>,
    far: BinaryHeap<Reverse<EvRef>>,
    /// Absolute bucket index of the current bucket.
    cursor: u64,
    /// Events in the ring's chains (excludes `current` and `far`).
    ring_len: usize,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            ring: vec![EMPTY; N_BUCKETS],
            blocks: Vec::new(),
            free: NIL,
            current: Vec::new(),
            far: BinaryHeap::new(),
            cursor: 0,
            ring_len: 0,
        }
    }

    fn push(&mut self, ev: EvRef) {
        let b = bucket_of(ev.at);
        debug_assert!(b >= self.cursor, "push into the past");
        if b >= self.cursor + N_BUCKETS as u64 {
            self.far.push(Reverse(ev));
        } else if b == self.cursor {
            let idx = self.current.partition_point(|e| *e > ev);
            self.current.insert(idx, ev);
        } else {
            self.append(b, ev);
        }
    }

    /// Append `ev` to ring bucket `b`'s chain, opening a block from the
    /// pool when its last one is full — `push` and the overflow refill
    /// both come through here.
    fn append(&mut self, b: u64, ev: EvRef) {
        let slot = (b % N_BUCKETS as u64) as usize;
        let Chain { tail, .. } = self.ring[slot];
        if tail == NIL || self.blocks[tail as usize].evs.len() == BLOCK {
            let id = self.open_block();
            if tail == NIL {
                self.ring[slot].head = id;
            } else {
                self.blocks[tail as usize].next = id;
            }
            self.ring[slot].tail = id;
        }
        let block = &mut self.blocks[self.ring[slot].tail as usize];
        debug_assert!(block.evs.len() < BLOCK);
        block.evs.push(ev);
        self.ring_len += 1;
    }

    /// An empty block: the pool's first, or a new one if the pool is dry.
    fn open_block(&mut self) -> u32 {
        if self.free == NIL {
            self.blocks.push(Block {
                evs: Vec::with_capacity(BLOCK),
                next: NIL,
            });
            return (self.blocks.len() - 1) as u32;
        }
        let id = self.free;
        let block = &mut self.blocks[id as usize];
        self.free = std::mem::replace(&mut block.next, NIL);
        id
    }

    /// The first non-empty ring bucket after the cursor; the ring must
    /// hold an event.
    fn next_populated(&self) -> u64 {
        let mut b = self.cursor + 1;
        while self.ring[(b % N_BUCKETS as u64) as usize].head == NIL {
            b += 1;
        }
        b
    }

    /// Earliest pending event, without moving the cursor.
    fn peek(&self) -> Option<EvRef> {
        if let Some(&ev) = self.current.last() {
            return Some(ev);
        }
        if self.ring_len == 0 {
            return self.far.peek().map(|r| r.0);
        }
        let slot = (self.next_populated() % N_BUCKETS as u64) as usize;
        let chain = self.chain(self.ring[slot].head);
        chain.flat_map(|block| &block.evs).min().copied()
    }

    /// The blocks of the chain that starts at block `id`, in order.
    fn chain(&self, mut id: u32) -> impl Iterator<Item = &Block> {
        std::iter::from_fn(move || {
            let block = (id != NIL).then(|| &self.blocks[id as usize])?;
            id = block.next;
            Some(block)
        })
    }

    fn pop(&mut self) -> Option<EvRef> {
        if self.current.is_empty() {
            if self.ring_len == 0 {
                // Far-jump: the ring is empty, so the earliest overflow
                // event defines the new current bucket.
                let Reverse(min) = *self.far.peek()?;
                self.advance_to(bucket_of(min.at));
            } else {
                self.advance_to(self.next_populated());
            }
        }
        self.current.pop()
    }

    /// Commit the cursor to bucket `b`, whose predecessors are all
    /// drained: refill the ring from the overflow heap up to the new
    /// horizon, then move bucket `b`'s entries into `current`, sorted,
    /// and its blocks back to the pool. Refilled events land only in
    /// slots whose previous absolute buckets (all `< b`) are already
    /// empty, so no slot ever mixes two absolute buckets.
    fn advance_to(&mut self, b: u64) {
        debug_assert!(b > self.cursor);
        debug_assert!(self.current.is_empty());
        self.cursor = b;
        let horizon = self.cursor + N_BUCKETS as u64;
        while self
            .far
            .peek()
            .is_some_and(|Reverse(ev)| bucket_of(ev.at) < horizon)
        {
            let Reverse(ev) = self.far.pop().expect("peeked above");
            self.append(bucket_of(ev.at), ev);
        }
        let slot = (self.cursor % N_BUCKETS as u64) as usize;
        let mut id = std::mem::replace(&mut self.ring[slot], EMPTY).head;
        // Room for exactly this bucket, should it be the largest yet.
        let n = self.chain(id).map(|block| block.evs.len()).sum();
        self.current.reserve_exact(n);
        while id != NIL {
            let block = &mut self.blocks[id as usize];
            self.ring_len -= block.evs.len();
            self.current.append(&mut block.evs);
            let next = std::mem::replace(&mut block.next, self.free);
            self.free = id;
            id = next;
        }
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Events queued: current, in the ring and beyond its horizon.
    fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.far.len()
    }

    /// Bytes of queue entries the queue holds room for: every block,
    /// `current` and the overflow heap.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        let entries = self.blocks.len() * BLOCK + self.current.capacity() + self.far.capacity();
        entries * std::mem::size_of::<EvRef>()
    }
}

struct Slot<A> {
    app: Option<A>,
    rng: SmallRng,
    /// Monotone counter of events created by this node; never reset
    /// (not even on revive), so `(origin, oseq)` stays unique for the
    /// lifetime of the run and stale queued events cannot collide with
    /// fresh ones.
    oseq: u64,
    /// Instant at which this node's inbound link becomes free.
    inbound_free: Time,
    /// Inside an injected message-drop window: everything addressed to
    /// this node is discarded at send time (the node itself stays alive
    /// and its timers keep firing). See [`crate::fault`].
    inbound_drop: bool,
}

/// A buffered inter-node send, not yet run through the flow-level
/// network model: its message waits in event-slab slot `slot`.
/// `(sent_at, from, oseq)` is the routing key: every loop routes sends
/// in this order, so the receiver's inbound-link reservations — and
/// therefore delivery times — are identical no matter which shard (or
/// flush batch) a send travelled through.
#[derive(Clone, Copy)]
struct SendKey {
    sent_at: Time,
    from: NodeId,
    to: NodeId,
    oseq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<SendKey>() == 32);

impl SendKey {
    fn key(&self) -> (Time, NodeId, u64) {
        (self.sent_at, self.from, self.oseq)
    }
}

/// What a core has yet to do: the queue, the slab its entries name, and
/// the inter-node sends awaiting key-sorted routing, their messages in
/// the slab (the inline loop routes them as soon as the clock moves past
/// their send instant, the windowed loop at the next barrier). A
/// handler's [`Ctx`] borrows it to file each send and timer as it is
/// made.
pub(crate) struct Events<M> {
    queue: CalendarQueue,
    slab: EventSlab<M>,
    outbound: Vec<SendKey>,
}

impl<M> Events<M> {
    fn new() -> Self {
        Events {
            queue: CalendarQueue::new(),
            slab: EventSlab::new(),
            outbound: Vec::new(),
        }
    }

    /// Put a send's message into the slab slot it will be delivered
    /// from. A self-send is a local hand-off — no latency, no bandwidth,
    /// not network traffic — and is queued at once; an inter-node send
    /// waits as a key, because the flow model must reserve the
    /// receiver's link in `(sent_at, from, oseq)` order, which is not
    /// emission order when several nodes send at one instant.
    pub(crate) fn send(&mut self, sent_at: Time, from: NodeId, to: NodeId, oseq: u64, msg: M) {
        let slot = self.slab.alloc(EventKind::Deliver { from, to, msg });
        if to == from {
            self.queue.push(EvRef {
                at: sent_at,
                origin: from,
                oseq,
                slot,
            });
        } else {
            self.outbound.push(SendKey {
                sent_at,
                from,
                to,
                oseq,
                slot,
            });
        }
    }

    /// Queue `node`'s timer `token` to fire at `at`.
    pub(crate) fn timer(&mut self, at: Time, node: NodeId, oseq: u64, token: u64) {
        let slot = self.slab.alloc(EventKind::Timer { node, token });
        self.queue.push(EvRef {
            at,
            origin: node,
            oseq,
            slot,
        });
    }
}

/// A send on its way to another core, its message out of the slab:
/// built only by [`EngineCore::drain_outbound`], filed back into a slot
/// by the receiving core's [`EngineCore::route_batch`] (or dispatched
/// straight from a [`crate::Cluster`] worker's inbox).
pub(crate) struct SendRec<M> {
    pub(crate) sent_at: Time,
    pub(crate) from: NodeId,
    pub(crate) oseq: u64,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// The shard-runnable heart of the engine: event queue, slab, node
/// slots, traffic stats, and the flow-level network model for the
/// nodes it owns. A one-core [`Sim`] runs it inline; with several, each
/// core owns a partition of the nodes and runs on a worker thread, and
/// the window barrier drains the cores' `outbound` buffers across
/// shards. A [`crate::Cluster`] worker owns one too, paced by the wall
/// clock instead of a barrier, and drains `outbound` into the other
/// workers' inboxes.
pub(crate) struct EngineCore<A: App> {
    cfg: NetConfig,
    now: Time,
    events: Events<A::Msg>,
    /// Indexed by *global* node id; `None` = not owned by this core
    /// (a foreign shard's node). A failed-but-owned node keeps its
    /// slot with `app: None`.
    nodes: Vec<Option<Box<Slot<A>>>>,
    stats: NetStats,
    events_processed: u64,
}

impl<A: App> EngineCore<A> {
    pub(crate) fn new(cfg: NetConfig) -> Self {
        EngineCore {
            cfg,
            now: Time::ZERO,
            events: Events::new(),
            nodes: Vec::new(),
            stats: NetStats::new(0),
            events_processed: 0,
        }
    }

    fn seed_rng(&self, id: NodeId) -> SmallRng {
        SmallRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Seat `app` at global id `id` (owned by this core) and run its
    /// `on_start` at the current time.
    pub(crate) fn add_local(&mut self, id: NodeId, app: A) {
        // Cover global ids `0..=id`; foreign slots stay `None`.
        if self.nodes.len() <= id as usize {
            self.nodes.resize_with(id as usize + 1, || None);
        }
        let rng = self.seed_rng(id);
        self.nodes[id as usize] = Some(Box::new(Slot {
            app: Some(app),
            rng,
            oseq: 0,
            inbound_free: Time::ZERO,
            inbound_drop: false,
        }));
        self.stats.ensure_nodes(id as usize + 1);
        self.with_app(id, |app, ctx| app.on_start(ctx));
    }

    /// Unseat `id`'s automaton and hand it back; the slot (RNG, event
    /// counter, queued events) stays.
    pub(crate) fn fail(&mut self, id: NodeId) -> Option<A> {
        self.nodes.get_mut(id as usize)?.as_mut()?.app.take()
    }

    pub(crate) fn alive(&self, id: NodeId) -> bool {
        self.nodes
            .get(id as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.app.is_some())
    }

    pub(crate) fn revive(&mut self, id: NodeId, app: A) -> bool {
        let now = self.now;
        let rng = self.seed_rng(id);
        let Some(Some(slot)) = self.nodes.get_mut(id as usize) else {
            return false;
        };
        if slot.app.is_some() {
            return false;
        }
        slot.app = Some(app);
        slot.rng = rng;
        slot.inbound_free = now;
        self.with_app(id, |app, ctx| app.on_start(ctx));
        true
    }

    pub(crate) fn set_inbound_drop(&mut self, id: NodeId, dropping: bool) {
        if let Some(Some(slot)) = self.nodes.get_mut(id as usize) {
            slot.inbound_drop = dropping;
        }
    }

    pub(crate) fn now(&self) -> Time {
        self.now
    }

    /// The conservative window width: no message is heard sooner than
    /// this after it is sent.
    pub(crate) fn lookahead(&self) -> Dur {
        self.cfg.topology.min_latency()
    }

    /// Raise the clock to `to` (at the end of a bounded run, which also
    /// aligns the cores of a windowed run with each other).
    pub(crate) fn raise_now(&mut self, to: Time) {
        if self.now < to {
            self.now = to;
        }
    }

    pub(crate) fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    pub(crate) fn app(&self, id: NodeId) -> Option<&A> {
        self.nodes
            .get(id as usize)
            .and_then(|s| s.as_ref())
            .and_then(|s| s.app.as_ref())
    }

    /// Run `f` as one handler of node `id`, its sends and timers filed
    /// as it makes them; `None` (and nothing runs) if the node has
    /// failed. Every handler runs here: dispatched, started, revived,
    /// injected, or answering a request.
    pub(crate) fn with_app<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>) -> R,
    ) -> Option<R> {
        let Slot { app, rng, oseq, .. } = &mut **self.nodes.get_mut(id as usize)?.as_mut()?;
        let app = app.as_mut()?;
        let mut ctx = Ctx::new(self.now, id, rng, oseq, &mut self.events);
        Some(f(app, &mut ctx))
    }

    /// Apply the flow-level network model to one buffered send and
    /// queue its slot as the delivery, or free the slot of a send the
    /// receiver's drop window discards. The receiver must be owned by
    /// this core.
    fn route_key(&mut self, key: SendKey) {
        let SendKey {
            sent_at,
            from,
            to,
            oseq,
            slot,
        } = key;
        let dest = self.nodes.get(to as usize).and_then(|s| s.as_ref());
        if !self.stats.admit(dest.is_some_and(|s| s.inbound_drop)) {
            self.events.slab.take(slot);
            return;
        }
        let latency = self.cfg.topology.latency(from, to);
        let link_arrival = sent_at + latency;
        let at = match self.cfg.inbound_bps {
            None => link_arrival,
            // A dead destination's link must not stay "busy": the drop
            // is classified at propagation arrival and no bandwidth is
            // reserved, so a later revival at this id starts clean.
            Some(_) if !self.alive(to) => link_arrival,
            Some(bps) => {
                let EventKind::Deliver { msg, .. } = self.events.slab.get(slot) else {
                    unreachable!("a send key names a delivery");
                };
                let transmit = Dur::from_secs_f64(msg.wire_size() as f64 * 8.0 / bps);
                let node = self.nodes[to as usize]
                    .as_mut()
                    .expect("alive receiver has a slot");
                let start = node.inbound_free.max(link_arrival);
                node.inbound_free = start + transmit;
                node.inbound_free
            }
        };
        self.events.queue.push(EvRef {
            at,
            origin: from,
            oseq,
            slot,
        });
    }

    /// Route the buffered sends together with `batch`, the sends other
    /// cores addressed to this core's nodes, in one key order, leaving
    /// `batch` empty with its capacity intact. (The windowed barrier
    /// partitions by destination shard before calling this.)
    pub(crate) fn route_batch(&mut self, batch: &mut Vec<SendRec<A::Msg>>) {
        for rec in batch.drain(..) {
            let SendRec { sent_at, from, .. } = rec;
            self.events.send(sent_at, from, rec.to, rec.oseq, rec.msg);
        }
        self.route_outbound();
    }

    /// Route every buffered send in key order. Routing only queues
    /// deliveries, so `outbound` stays empty while its buffer is out;
    /// handing it back keeps the capacity for the next batch.
    fn route_outbound(&mut self) {
        let mut keys = std::mem::take(&mut self.events.outbound);
        keys.sort_unstable_by_key(SendKey::key);
        for key in keys.drain(..) {
            self.route_key(key);
        }
        self.events.outbound = keys;
        debug_assert!(self.slots_accounted(), "a slab slot leaked in routing");
    }

    /// Hand `cross` every buffered send whose receiver `local` does not
    /// claim, its message taken out of the slab — the one place a
    /// `SendRec` is built. Sends to local receivers stay buffered as
    /// keys, in order. (The windowed barrier claims its own shard's
    /// nodes; a [`crate::Cluster`] worker claims none, since its
    /// deliveries go through the inboxes.)
    pub(crate) fn drain_outbound(
        &mut self,
        local: impl Fn(NodeId) -> bool,
        mut cross: impl FnMut(SendRec<A::Msg>),
    ) {
        let Events { slab, outbound, .. } = &mut self.events;
        outbound.retain(|key| {
            if local(key.to) {
                return true;
            }
            let EventKind::Deliver { msg, .. } = slab.take(key.slot) else {
                unreachable!("a send key names a delivery");
            };
            cross(SendRec {
                sent_at: key.sent_at,
                from: key.from,
                oseq: key.oseq,
                to: key.to,
                msg,
            });
            false
        });
        debug_assert!(self.slots_accounted(), "a slab slot leaked in a drain");
    }

    /// Whether any send waits for routing or a drain.
    pub(crate) fn has_outbound(&self) -> bool {
        !self.events.outbound.is_empty()
    }

    /// No slab slot leaked: there are as many live slots as queued
    /// events and buffered send keys, each of which names one.
    fn slots_accounted(&self) -> bool {
        let ev = &self.events;
        ev.slab.live() == ev.queue.len() + ev.outbound.len()
    }

    /// Inline-loop flush: once every event at the send instant has
    /// run (so no earlier-keyed send can still appear), route the
    /// buffer key-sorted. All buffered sends share one send instant —
    /// the clock cannot advance past it without flushing here first.
    fn flush_due(&mut self) {
        let Some(first) = self.events.outbound.first() else {
            return;
        };
        let t = first.sent_at;
        debug_assert!(self.events.outbound.iter().all(|k| k.sent_at == t));
        if self.next_at().is_some_and(|at| at <= t) {
            return;
        }
        self.route_outbound();
    }

    /// Time of the earliest queued event (buffered sends excluded —
    /// their delivery time is not known until they are routed).
    pub(crate) fn next_at(&self) -> Option<Time> {
        self.events.queue.peek().map(|e| e.at)
    }

    /// Process the next queued event: run its one handler. Returns
    /// `false` when the queue is empty.
    fn step_inner(&mut self) -> bool {
        let Some(ev) = self.events.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;
        match self.events.slab.take(ev.slot) {
            EventKind::Deliver { from, to, msg } => {
                if from != to {
                    self.stats.land(to, &msg, self.alive(to));
                }
                // A dead receiver: dropped.
                self.with_app(to, |app, ctx| app.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, token } => {
                self.with_app(node, |app, ctx| app.on_timer(ctx, token));
            }
        }
        debug_assert!(self.slots_accounted(), "a slab slot leaked in a handler");
        true
    }

    /// The inline run loop: process every event up to and including
    /// `deadline`, routing buffered sends as the clock passes them.
    pub(crate) fn run_until(&mut self, deadline: Time) {
        loop {
            self.flush_due();
            match self.next_at() {
                Some(at) if at <= deadline => {
                    self.step_inner();
                }
                _ => break,
            }
        }
        self.raise_now(deadline);
    }

    /// Execute every queued event with `at < end` (window-exclusive),
    /// leaving inter-node sends buffered for the barrier. Returns the
    /// number of events processed.
    pub(crate) fn execute_window(&mut self, end: Time) -> u64 {
        let before = self.events_processed;
        while self.next_at().is_some_and(|at| at < end) {
            self.step_inner();
        }
        self.events_processed - before
    }
}

/// The discrete-event simulator hosting many [`App`] automata, on one
/// core or partitioned over several (see the module docs).
pub struct Sim<A: App> {
    cores: Vec<EngineCore<A>>,
    map: ShardMap,
    node_count: usize,
}

impl<A: App> Sim<A> {
    /// The one-core engine: every event runs inline on the caller's
    /// thread, and any topology (zero-latency links included) is fine.
    pub fn new(cfg: NetConfig) -> Self {
        Sim {
            cores: vec![EngineCore::new(cfg)],
            map: ShardMap::round_robin(1),
            node_count: 0,
        }
    }

    /// Engine over `map.shards()` cores. Panics if the topology's
    /// `min_latency` is zero (no conservative lookahead).
    pub(crate) fn sharded(cfg: NetConfig, map: ShardMap) -> Self {
        assert!(
            cfg.topology.min_latency() > Dur::ZERO,
            "sharded execution needs a positive minimum link latency"
        );
        Sim {
            cores: (0..map.shards())
                .map(|_| EngineCore::new(cfg.clone()))
                .collect(),
            map,
            node_count: 0,
        }
    }

    fn core_of(&self, id: NodeId) -> &EngineCore<A> {
        &self.cores[self.map.shard_of(id)]
    }

    fn core_of_mut(&mut self, id: NodeId) -> &mut EngineCore<A> {
        &mut self.cores[self.map.shard_of(id)]
    }

    /// Add a node and run its `on_start` handler at the current time.
    pub fn add_node(&mut self, app: A) -> NodeId {
        let id = self.node_count as NodeId;
        self.node_count += 1;
        self.core_of_mut(id).add_local(id, app);
        id
    }

    /// Abruptly fail a node: its state is gone, and all in-flight or
    /// future traffic addressed to it is dropped (§5.6).
    pub fn fail_node(&mut self, id: NodeId) {
        self.core_of_mut(id).fail(id);
    }

    pub fn alive(&self, id: NodeId) -> bool {
        self.core_of(id).alive(id)
    }

    /// Re-seat a previously failed node with a fresh automaton — a new
    /// process joining at the same address. The RNG is reseeded exactly
    /// as in [`Self::add_node`] (revival is deterministic) and the
    /// inbound link starts idle. Returns `false` if `id` never existed
    /// or is still alive.
    pub fn revive(&mut self, id: NodeId, app: A) -> bool {
        self.core_of_mut(id).revive(id, app)
    }

    /// Open (`true`) or close (`false`) a message-drop window on a
    /// node's inbound side: while open, every message addressed to it
    /// is discarded at send time — the node keeps its state and its
    /// timers keep firing, unlike [`Self::fail_node`].
    pub fn set_inbound_drop(&mut self, id: NodeId, dropping: bool) {
        self.core_of_mut(id).set_inbound_drop(id, dropping);
    }

    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The engine clock. Every run leaves all cores at the same instant.
    pub fn now(&self) -> Time {
        self.cores[0].now()
    }

    /// Traffic statistics, merged over the cores. The counters are
    /// plain sums, so the totals do not depend on the shard map.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new(self.node_count);
        for core in &self.cores {
            total.merge(core.stats());
        }
        total
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.cores.iter().map(|c| c.events_processed()).sum()
    }

    /// Read-only access to a live node's automaton.
    pub fn app(&self, id: NodeId) -> Option<&A> {
        self.core_of(id).app(id)
    }

    /// Inject an external call into a node (e.g. "submit this query"),
    /// exactly as if a local application invoked the PIER API. Returns
    /// `None` if the node has failed.
    pub fn with_app<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>) -> R,
    ) -> Option<R> {
        self.core_of_mut(id).with_app(id, f)
    }

    /// Run until the clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or every queue drains.
    pub fn run_until(&mut self, deadline: Time) {
        match &mut self.cores[..] {
            [core] => core.run_until(deadline),
            _ => run_windowed(&mut self.cores, &self.map, deadline),
        }
    }

    pub fn run_for(&mut self, d: Dur) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Run, one event instant at a time, until nothing is pending or at
    /// least `max_events` more events have run. Returns whether the
    /// engine is idle; the clock stops at the last instant processed.
    pub fn run_idle(&mut self, max_events: u64) -> bool {
        let budget = self.events_processed() + max_events;
        // A zero-length run routes the sends injected since the last run
        // (every run routes its own), so from here on the next pending
        // instant is always the earliest queued event.
        self.run_until(self.now());
        while let Some(at) = self.cores.iter().filter_map(|c| c.next_at()).min() {
            if self.events_processed() >= budget {
                return false;
            }
            self.run_until(at);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FullMesh;
    use proptest::prelude::*;

    /// Ping automaton: an initiator pings its peer on start, a responder
    /// (no peer) echoes; both record what they hear.
    struct Ping {
        peer: Option<NodeId>,
        got: Vec<(Time, u32)>,
    }

    impl Ping {
        fn responder() -> Self {
            Ping {
                peer: None,
                got: vec![],
            }
        }
        fn initiator(peer: NodeId) -> Self {
            Ping {
                peer: Some(peer),
                got: vec![],
            }
        }
    }

    #[derive(Clone, Debug)]
    struct Num(u32, usize); // value, wire size

    impl Wire for Num {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    impl App for Ping {
        type Msg = Num;
        fn on_start(&mut self, ctx: &mut Ctx<Num>) {
            if let Some(p) = self.peer {
                ctx.send(p, Num(1, 100));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Num>, from: NodeId, msg: Num) {
            self.got.push((ctx.now, msg.0));
            if self.peer.is_none() {
                ctx.send(from, Num(msg.0 + 1, 100));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Num>, _token: u64) {}
    }

    fn mesh_cfg(bps: Option<f64>) -> NetConfig {
        NetConfig {
            topology: Arc::new(FullMesh {
                latency: Dur::from_millis(100),
            }),
            inbound_bps: bps,
            seed: 1,
        }
    }

    /// Sends one 1.25 MB message (1 s at 10 Mbps) at its target on start
    /// and records when anything arrives.
    struct Blast {
        target: Option<NodeId>,
        got: Vec<Time>,
    }
    impl Blast {
        fn at(target: Option<NodeId>) -> Self {
            Blast {
                target,
                got: vec![],
            }
        }
    }
    impl App for Blast {
        type Msg = Num;
        fn on_start(&mut self, ctx: &mut Ctx<Num>) {
            if let Some(t) = self.target {
                ctx.send(t, Num(0, 1_250_000));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Num>, _from: NodeId, _msg: Num) {
            self.got.push(ctx.now);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Num>, _token: u64) {}
    }

    /// Arms one timer per entry of `secs` on start (token = seconds), in
    /// the listed order, and records every firing.
    struct Timers {
        secs: Vec<u64>,
        fired: Vec<(Time, u64)>,
    }
    impl App for Timers {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            for &s in &self.secs {
                ctx.set_timer(Dur::from_secs(s), s);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<()>, _from: NodeId, _msg: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<()>, token: u64) {
            self.fired.push((ctx.now, token));
        }
    }
    fn timers_sim(secs: &[u64]) -> (Sim<Timers>, NodeId) {
        let mut sim = Sim::new(mesh_cfg(None));
        let n = sim.add_node(Timers {
            secs: secs.to_vec(),
            fired: vec![],
        });
        (sim, n)
    }

    #[test]
    fn round_trip_takes_two_latencies() {
        let mut sim = Sim::new(mesh_cfg(None));
        let b = Ping::responder();
        // Node 1 must exist before node 0 pings it, so add the responder
        // first and then the initiator pointing at it.
        let responder = sim.add_node(b);
        let a = Ping::initiator(responder);
        let initiator = sim.add_node(a);
        sim.run_idle(1000);
        let app = sim.app(initiator).unwrap();
        assert_eq!(app.got.len(), 1);
        assert_eq!(app.got[0].0, Time::from_secs_f64(0.2));
        assert_eq!(app.got[0].1, 2);
    }

    #[test]
    fn bandwidth_queues_on_receiver_inbound_link() {
        // Two 1,250,000-byte messages at 10 Mbps = 1 s transmission each.
        // Sent back-to-back from different sources, they serialize on the
        // receiver's inbound link: deliveries at 1.1 s and 2.1 s.
        let mut sim = Sim::new(mesh_cfg(Some(10e6)));
        let sink = sim.add_node(Blast::at(None));
        sim.add_node(Blast::at(Some(sink)));
        sim.add_node(Blast::at(Some(sink)));
        sim.run_idle(100);
        let got = &sim.app(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Time::from_secs_f64(1.1));
        assert_eq!(got[1], Time::from_secs_f64(2.1));
        assert_eq!(sim.stats().bytes, 2_500_000);
        assert_eq!(sim.stats().max_inbound(), 2_500_000);
    }

    #[test]
    fn failed_node_drops_traffic_and_state() {
        let mut sim = Sim::new(mesh_cfg(None));
        let responder = sim.add_node(Ping::responder());
        sim.fail_node(responder);
        let initiator = sim.add_node(Ping::initiator(responder));
        sim.run_idle(100);
        assert!(sim.app(responder).is_none());
        assert!(sim.app(initiator).unwrap().got.is_empty());
        assert_eq!(sim.stats().dropped_to_failed, 1);
    }

    #[test]
    fn drop_window_discards_then_heals() {
        let mut sim = Sim::new(mesh_cfg(None));
        let responder = sim.add_node(Ping::responder());
        sim.set_inbound_drop(responder, true);
        let initiator = sim.add_node(Ping::initiator(responder));
        sim.run_idle(100);
        // The ping was discarded in the window; the responder is alive
        // but heard nothing.
        assert!(sim.app(responder).unwrap().got.is_empty());
        assert_eq!(sim.stats().dropped_in_window, 1);
        // Heal the link and ping again: traffic flows.
        sim.set_inbound_drop(responder, false);
        sim.with_app(initiator, |app, ctx| {
            let peer = app.peer.unwrap();
            ctx.send(peer, Num(1, 100));
        });
        sim.run_idle(100);
        assert_eq!(sim.app(responder).unwrap().got.len(), 1);
        assert_eq!(sim.app(initiator).unwrap().got.len(), 1);
    }

    #[test]
    fn timers_fire_in_order_and_run_until_advances_clock() {
        let (mut sim, n) = timers_sim(&[3, 1, 2]);
        sim.run_until(Time::from_secs_f64(1.5));
        assert_eq!(sim.app(n).unwrap().fired, vec![(Time(1_000_000), 1)]);
        assert_eq!(sim.now(), Time::from_secs_f64(1.5));
        sim.run_idle(10);
        assert_eq!(sim.app(n).unwrap().fired.len(), 3);
        assert_eq!(sim.now(), Time(3_000_000));
    }

    #[test]
    fn dead_destination_skips_the_flow_model() {
        // Two 1.25 MB blasts at a dead sink. Pre-fix, each reserved a
        // second of the dead node's inbound link, so the drops landed
        // at 1.1 s and 2.1 s and the link stayed "busy"; post-fix both
        // are classified at propagation arrival (0.1 s).
        let mut sim = Sim::new(mesh_cfg(Some(10e6)));
        let sink = sim.add_node(Blast::at(None));
        sim.fail_node(sink);
        sim.add_node(Blast::at(Some(sink)));
        sim.add_node(Blast::at(Some(sink)));
        sim.run_idle(100);
        assert_eq!(sim.stats().dropped_to_failed, 2);
        assert_eq!(sim.now(), Time::from_secs_f64(0.1));
    }

    #[test]
    fn revive_reseats_a_failed_node() {
        let mut sim = Sim::new(mesh_cfg(Some(10e6)));
        let responder = sim.add_node(Ping::responder());
        let initiator = sim.add_node(Ping::initiator(responder));
        assert!(!sim.revive(responder, Ping::responder())); // still alive
        sim.fail_node(responder);
        sim.run_idle(100);
        assert_eq!(sim.stats().dropped_to_failed, 1);
        assert!(sim.revive(responder, Ping::responder()));
        assert!(sim.alive(responder));
        // A fresh ping now round-trips against the revived state.
        sim.with_app(initiator, |app, ctx| {
            let peer = app.peer.unwrap();
            ctx.send(peer, Num(1, 100));
        });
        sim.run_idle(100);
        assert_eq!(sim.app(responder).unwrap().got.len(), 1);
        assert_eq!(sim.app(initiator).unwrap().got.len(), 1);
        assert!(!sim.revive(999, Ping::responder())); // never existed
    }

    #[test]
    fn far_horizon_timers_survive_the_ring() {
        // 120 s and 200 s are beyond the ~67 s calendar horizon, so
        // these park in the overflow heap and must refill correctly.
        let (mut sim, n) = timers_sim(&[200, 1, 120]);
        sim.run_idle(10);
        assert_eq!(
            sim.app(n).unwrap().fired,
            vec![
                (Time(1_000_000), 1),
                (Time(120_000_000), 120),
                (Time(200_000_000), 200),
            ]
        );
    }

    #[test]
    fn same_instant_deliveries_run_in_origin_order() {
        struct Tell {
            target: Option<NodeId>,
            got: Vec<(Time, NodeId)>,
        }
        impl App for Tell {
            type Msg = Num;
            fn on_start(&mut self, ctx: &mut Ctx<Num>) {
                if let Some(t) = self.target {
                    ctx.send(t, Num(0, 100));
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<Num>, from: NodeId, _msg: Num) {
                self.got.push((ctx.now, from));
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<Num>, _token: u64) {}
        }
        let mut sim: Sim<Tell> = Sim::new(mesh_cfg(None));
        let sink = sim.add_node(Tell {
            target: None,
            got: vec![],
        });
        for _ in 0..3 {
            sim.add_node(Tell {
                target: Some(sink),
                got: vec![],
            });
        }
        sim.run_idle(100);
        // All three arrive at the same instant and must be handled in
        // origin (sender id) order — the shard-invariant ordering key
        // decides.
        let got = &sim.app(sink).unwrap().got;
        let t = Time::from_secs_f64(0.1);
        assert_eq!(got, &vec![(t, 1), (t, 2), (t, 3)]);
    }

    /// A handler's effects take event numbers in the order it makes
    /// them: a self-send, a zero-delay timer and a second self-send,
    /// all due at the instant they were made, run in that order.
    #[test]
    fn a_handlers_effects_run_in_emission_order() {
        struct Echo {
            heard: Vec<&'static str>,
        }
        impl App for Echo {
            type Msg = Num;
            fn on_start(&mut self, _ctx: &mut Ctx<Num>) {}
            fn on_message(&mut self, _ctx: &mut Ctx<Num>, _from: NodeId, msg: Num) {
                self.heard.push(["a", "b"][msg.0 as usize]);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<Num>, _token: u64) {
                self.heard.push("t");
            }
        }
        let mut sim = Sim::new(mesh_cfg(None));
        let n = sim.add_node(Echo { heard: vec![] });
        sim.with_app(n, |_, ctx| {
            ctx.send(ctx.me, Num(0, 100));
            ctx.set_timer(Dur::ZERO, 0);
            ctx.send(ctx.me, Num(1, 100));
        });
        assert!(sim.run_idle(10));
        assert_eq!(sim.app(n).unwrap().heard, ["a", "t", "b"]);
        assert_eq!(sim.now(), Time::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Sim::new(mesh_cfg(Some(10e6)));
            let responder = sim.add_node(Ping::responder());
            let initiator = sim.add_node(Ping::initiator(responder));
            sim.run_idle(100);
            (
                sim.app(initiator).unwrap().got.clone(),
                sim.stats().bytes,
                sim.now(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Every live slab slot is named by one queued event or one buffered
    /// send key, however a send ends — delivered, discarded by a drop
    /// window at admission, landed on a dead node, sent to a revived
    /// one — inline and with sends crossing shards; and a drained engine
    /// holds no slot at all.
    #[test]
    fn no_slab_slot_outlives_its_send() {
        let accounted = |sim: &Sim<Ping>| sim.cores.iter().all(EngineCore::slots_accounted);
        let live = |sim: &Sim<Ping>| {
            sim.cores
                .iter()
                .map(|c| c.events.slab.live())
                .sum::<usize>()
        };
        let engines = [
            Sim::new(mesh_cfg(Some(10e6))),
            Sim::sharded(mesh_cfg(Some(10e6)), ShardMap::round_robin(2)),
        ];
        for mut sim in engines {
            let responders: Vec<NodeId> = (0..3).map(|_| sim.add_node(Ping::responder())).collect();
            let sender = sim.add_node(Ping::initiator(responders[0]));
            let burst = |sim: &mut Sim<Ping>| {
                sim.with_app(sender, |_, ctx| {
                    for to in [0, 1, 2, sender] {
                        ctx.send(to, Num(1, 1_000));
                    }
                });
            };
            sim.set_inbound_drop(responders[1], true);
            sim.fail_node(responders[2]);
            burst(&mut sim);
            assert!(accounted(&sim) && live(&sim) > 0);
            assert!(sim.run_idle(100));
            assert!(accounted(&sim));
            assert_eq!(live(&sim), 0, "a drained engine holds no slot");
            let stats = sim.stats();
            assert_eq!((stats.dropped_in_window, stats.dropped_to_failed), (1, 1));

            sim.set_inbound_drop(responders[1], false);
            assert!(sim.revive(responders[2], Ping::responder()));
            burst(&mut sim);
            sim.run_for(Dur::from_millis(150));
            assert!(accounted(&sim) && live(&sim) > 0, "replies in flight");
            assert!(sim.run_idle(100));
            assert_eq!(live(&sim), 0);
            // The start-up ping's reply; each burst's self-send and the
            // replies of the responders that heard it.
            assert_eq!(sim.app(sender).unwrap().got.len(), 1 + 2 + 4);
        }
    }

    /// The 10^4-node maintenance tick as the queue sees it: every event
    /// of a bucket re-arms itself one period on, and the period is not a
    /// whole number of buckets, so each round lands in a slot no earlier
    /// round touched. A hundred drained buckets later the pool holds the
    /// blocks of one bucket — the one being filled, while the one being
    /// drained is in `current` — not of a hundred.
    #[test]
    fn drained_buckets_hand_their_capacity_on() {
        const NODES: u64 = 10_000;
        const PERIOD: u64 = 500_000;
        let tick = |round: u64, node: u64| EvRef {
            at: Time(round * PERIOD),
            origin: node as NodeId,
            oseq: round,
            slot: node as u32,
        };
        let mut queue = CalendarQueue::new();
        for node in 0..NODES {
            queue.push(tick(1, node));
        }
        for round in 1..=100 {
            for node in 0..NODES {
                assert!(queue.pop() == Some(tick(round, node)));
                queue.push(tick(round + 1, node));
            }
        }
        assert_eq!(queue.blocks.len(), (NODES as usize).div_ceil(BLOCK));
        assert_eq!(queue.current.capacity(), NODES as usize);
    }

    /// Bursts of up to ~5 000 events into buckets that change from round
    /// to round, a trickle of one event in each bucket between them, and
    /// a run loop draining what falls due: the engine holds room for the
    /// most events ever in flight, not for the history of its buckets.
    /// The queue's blocks cover the most events ever queued plus one
    /// partial block per bucket populated at once, `current` the largest
    /// bucket, and the slab the most events rounded up to one chunk.
    #[test]
    fn resident_queue_and_slab_follow_the_most_events_in_flight() {
        use std::collections::BTreeMap;
        let mut events: Events<()> = Events::new();
        // Events per populated bucket, as the queue should see them.
        let mut model: BTreeMap<u64, usize> = BTreeMap::new();
        let (mut peak, mut peak_buckets, mut largest) = (0, 0, 0);
        let (mut now, mut oseq) = (0u64, 0u64);
        let mut timer = |events: &mut Events<()>, model: &mut BTreeMap<_, _>, at| {
            oseq += 1;
            events.timer(Time(at), (oseq % 7) as NodeId, oseq, 0);
            *model.entry(at >> BUCKET_BITS).or_insert(0) += 1;
        };
        for round in 0..64u64 {
            let burst = 500 + (round * 997) % 4_500;
            let ahead = 2 + (round * 13) % 40;
            for i in 0..burst {
                timer(&mut events, &mut model, now + ahead * WIDTH + i % WIDTH);
            }
            for k in 1..=48 {
                timer(&mut events, &mut model, now + k * WIDTH + round);
            }
            peak = peak.max(events.queue.len());
            peak_buckets = peak_buckets.max(model.len());
            largest = largest.max(*model.values().max().expect("populated"));
            let until = now + 24 * WIDTH;
            while events
                .queue
                .peek()
                .is_some_and(|ev| ev.at.as_micros() < until)
            {
                let ev = events.queue.pop().expect("peeked");
                events.slab.take(ev.slot);
                let b = bucket_of(ev.at);
                *model.get_mut(&b).expect("queued") -= 1;
                if model[&b] == 0 {
                    model.remove(&b);
                }
            }
            now = until;
        }
        // Past a power of two, where a doubling buffer would hold twice.
        assert!(peak > 4_096, "the most events in flight: {peak}");
        let entry = std::mem::size_of::<EvRef>();
        let queue_bound = (peak + BLOCK * peak_buckets + largest) * entry;
        let queue = events.queue.resident_bytes();
        assert!(
            queue <= queue_bound,
            "queue holds {queue} B for {peak} events in {peak_buckets} buckets, bound {queue_bound} B"
        );
        let slot = std::mem::size_of::<SlabSlot<()>>();
        let slab_bound = peak.div_ceil(CHUNK) * CHUNK * slot;
        let slab = events.slab.resident_bytes();
        assert!(
            slab <= slab_bound,
            "slab holds {slab} B for {peak} events, bound {slab_bound} B"
        );
    }

    // -----------------------------------------------------------------
    // The calendar queue against a binary heap
    // -----------------------------------------------------------------

    /// One bucket and one lap of the ring, in µs.
    const WIDTH: u64 = 1 << BUCKET_BITS;
    const LAP: u64 = N_BUCKETS as u64 * WIDTH;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `CalendarQueue` is a priority queue on `EvRef`: under any
        /// interleaving of pushes and pops the engine can produce —
        /// every push at or after the clock, the clock never past the
        /// earliest pending event — it pops exactly what a binary heap
        /// pops, and `peek` names the next `pop` without disturbing it.
        /// Pushes aim at the current bucket, the next one, both sides of
        /// the ring's edge, the overflow heap, anywhere in the ring, and
        /// the current instant (ties, broken by origin and oseq).
        #[test]
        fn calendar_queue_pops_in_heap_order(
            draws in prop::collection::vec(any::<u64>(), 1..800),
        ) {
            let mut queue = CalendarQueue::new();
            let mut model: BinaryHeap<Reverse<EvRef>> = BinaryHeap::new();
            let mut now = 0u64;
            let mut oseq = 0u64;
            let mut popped = 0usize;
            for draw in draws {
                let r = draw / 12;
                let at = match draw % 12 {
                    0 | 1 => now + r % WIDTH,
                    2 => now + WIDTH + r % WIDTH,
                    3 => now + LAP - 2 * WIDTH + r % (4 * WIDTH),
                    4 => now + LAP + r % (3 * LAP),
                    5 => now + r % LAP,
                    6 => now,
                    7 => {
                        // A bounded run ends: the clock rises, never
                        // past the earliest pending event.
                        let to = now + r % (2 * LAP);
                        now = queue.peek().map_or(to, |ev| to.min(ev.at.as_micros()));
                        continue;
                    }
                    _ => {
                        let want = model.pop().map(|Reverse(ev)| ev);
                        prop_assert!(queue.peek() == want);
                        let got = queue.pop();
                        prop_assert!(got == want);
                        if let Some(ev) = got {
                            prop_assert!(ev.at.as_micros() >= now);
                            now = ev.at.as_micros();
                            popped += 1;
                        }
                        continue;
                    }
                };
                // A peek before the push: reading must not move the
                // cursor, or a push behind the peeked bucket would land
                // in the past.
                if r & 1 == 1 {
                    prop_assert!(queue.peek() == model.peek().map(|r| r.0));
                }
                oseq += 1;
                let ev = EvRef {
                    at: Time(at),
                    origin: (r >> 32) as NodeId % 4,
                    oseq,
                    slot: oseq as u32,
                };
                queue.push(ev);
                model.push(Reverse(ev));
            }
            // Drain: everything pushed comes out, in order.
            while let Some(Reverse(want)) = model.pop() {
                prop_assert!(queue.peek() == Some(want));
                prop_assert!(queue.pop() == Some(want));
                popped += 1;
            }
            prop_assert!(queue.pop().is_none() && queue.peek().is_none());
            prop_assert_eq!(popped as u64, oseq);
        }
    }
}
