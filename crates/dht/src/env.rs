//! Environment abstraction decoupling the DHT from the hosting engine.
//!
//! The DHT layer never talks to an engine directly; it emits sends and
//! timers through [`DhtEnv`]. One adapter, [`CtxEnv`], serves both hosts:
//! the query processor's `Ctx<PierMsg>` and this crate's test harness on
//! a bare `Ctx<DhtMsg<V>>`.

use crate::event::DhtEvent;
use crate::msg::DhtMsg;
use crate::storage::StorageManager;
use crate::traffic::TrafficMeter;
use crate::Ns;
use pier_simnet::app::Ctx;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NodeId, Wire};
use rand::Rng;

/// What the DHT needs from its host: a clock, an identity, a network,
/// timers, randomness — and which namespaces it registered `newData`
/// for.
pub trait DhtEnv<V> {
    fn now(&self) -> Time;
    fn me(&self) -> NodeId;
    fn send(&mut self, to: NodeId, msg: DhtMsg<V>);
    fn timer(&mut self, after: Dur, token: u64);
    fn rand64(&mut self) -> u64;

    /// Table 3's `newData(namespace)` is a registration: does the host
    /// want the upcall for an item new to `ns`? The provider asks as it
    /// stores the item and, on a no, builds nothing — no copy of the
    /// entry, no [`DhtEvent::NewData`]. The item is stored either way,
    /// so a host that registers later finds it by `lscan` — and only by
    /// `lscan`: the answer is taken at store time, inside the call, so
    /// register before a `put` whose item may land on this very node.
    /// A host that does not answer hears about every namespace.
    fn wants_new_data(&self, _ns: Ns) -> bool {
        true
    }
}

/// What the provider lends its routing layer for the length of one
/// call: the host, the sender-side traffic meter, the primary store
/// (joins and leaves hand items over with their zones) and the upcall
/// list. The provider sends through the same lend, so every outgoing
/// message is metered in [`Lend::send`] and nowhere else.
pub struct Lend<'a, V> {
    pub env: &'a mut dyn DhtEnv<V>,
    pub meter: &'a mut TrafficMeter,
    pub store: &'a mut StorageManager<V>,
    pub events: &'a mut Vec<DhtEvent<V>>,
}

impl<V: Wire> Lend<'_, V> {
    /// Send `msg`, charging it to the meter by category.
    pub fn send(&mut self, to: NodeId, msg: DhtMsg<V>) {
        self.meter.record(&msg);
        self.env.send(to, msg);
    }
}

/// An environment that records everything — for unit tests of protocol
/// handlers (also used by pier-core's tests).
pub struct RecordingEnv<V> {
    pub now: Time,
    pub me: NodeId,
    pub sent: Vec<(NodeId, DhtMsg<V>)>,
    pub timers: Vec<(Dur, u64)>,
    pub seed: u64,
}

impl<V> RecordingEnv<V> {
    pub fn new(me: NodeId) -> Self {
        RecordingEnv {
            now: Time::ZERO,
            me,
            sent: Vec::new(),
            timers: Vec::new(),
            seed: 0x5EED,
        }
    }
}

impl<V> DhtEnv<V> for RecordingEnv<V> {
    fn now(&self) -> Time {
        self.now
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: DhtMsg<V>) {
        self.sent.push((to, msg));
    }
    fn timer(&mut self, after: Dur, token: u64) {
        self.timers.push((after, token));
    }
    fn rand64(&mut self) -> u64 {
        self.seed = crate::geom::splitmix64(self.seed);
        self.seed
    }
}

/// Adapter for a host automaton whose message type `M` carries
/// `DhtMsg<V>`: `DhtMsg<V>` itself (the DHT test harness) or an envelope
/// that wraps it (`pier_core`'s `PierMsg`).
pub struct CtxEnv<'a, 'b, M> {
    pub ctx: &'a mut Ctx<'b, M>,
}

impl<V, M: From<DhtMsg<V>>> DhtEnv<V> for CtxEnv<'_, '_, M> {
    fn now(&self) -> Time {
        self.ctx.now
    }
    fn me(&self) -> NodeId {
        self.ctx.me
    }
    fn send(&mut self, to: NodeId, msg: DhtMsg<V>) {
        self.ctx.send(to, msg.into());
    }
    fn timer(&mut self, after: Dur, token: u64) {
        self.ctx.set_timer(after, token);
    }
    fn rand64(&mut self) -> u64 {
        self.ctx.rng.gen()
    }
}
