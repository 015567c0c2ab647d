//! A bare DHT node automaton for tests and DHT-level benchmarks.
//!
//! [`DhtNode`] hosts a [`Dht`] directly on the engine (message type =
//! `DhtMsg<V>`) and records every upcall with its arrival time. PIER
//! proper wraps the DHT inside a larger automaton (pier-core), but the
//! protocol behaviour exercised here is identical.

use pier_simnet::app::{App, Ctx};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NodeId, Service, Wire};

use crate::dht::Dht;
use crate::env::CtxEnv;
use crate::event::DhtEvent;
use crate::msg::DhtMsg;
use crate::{DhtConfig, Ns, OverlayKind, Rid};

/// Test harness automaton: one DHT stack, an event log, nothing else.
pub struct DhtNode<V: Wire + Clone> {
    pub dht: Dht<V>,
    pub events: Vec<(Time, DhtEvent<V>)>,
}

impl<V: Wire + Clone> DhtNode<V> {
    /// A node that will join via `bootstrap` (or start a new overlay).
    pub fn new(cfg: DhtConfig, me: NodeId, bootstrap: Option<NodeId>) -> Self {
        let mut dht = Dht::new(cfg, me);
        dht.bootstrap = bootstrap;
        Self::with_dht(dht)
    }

    /// A node with a pre-stabilized overlay state.
    pub fn with_dht(dht: Dht<V>) -> Self {
        DhtNode {
            dht,
            events: Vec::new(),
        }
    }

    /// Events of a given predicate, with times.
    pub fn events_where(
        &self,
        pred: impl Fn(&DhtEvent<V>) -> bool,
    ) -> impl Iterator<Item = &(Time, DhtEvent<V>)> {
        self.events.iter().filter(move |(_, e)| pred(e))
    }
}

impl<V: Wire + Clone + Send + 'static> App for DhtNode<V> {
    type Msg = DhtMsg<V>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let bootstrap = self.dht.bootstrap;
        let mut env = CtxEnv { ctx };
        // Pre-stabilized nodes still need their tick timer; `start` with
        // no bootstrap is idempotent for an already-joined overlay.
        if self.dht.is_joined() {
            env.ctx.set_timer(self.dht.cfg.tick, crate::DHT_TICK_TOKEN);
        } else {
            self.dht.start(&mut env, bootstrap);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg) {
        let now = ctx.now;
        let mut env = CtxEnv { ctx };
        let mut events = Vec::new();
        self.dht.handle_message(&mut env, from, msg, &mut events);
        self.events.extend(events.into_iter().map(|e| (now, e)));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, token: u64) {
        let now = ctx.now;
        let mut env = CtxEnv { ctx };
        let mut events = Vec::new();
        self.dht.handle_timer(&mut env, token, &mut events);
        self.events.extend(events.into_iter().map(|e| (now, e)));
    }
}

/// Typed requests for a [`DhtNode`] actor — the DHT's Table 3 provider
/// calls plus the observations replication tests need, expressed as
/// values so they can cross the actor-runtime wire.
#[derive(Clone, Debug)]
pub enum DhtRequest<V> {
    /// Provider `put` into `(ns, rid, iid)` with a soft-state lifetime.
    Put {
        ns: Ns,
        rid: Rid,
        iid: u32,
        val: V,
        lifetime: Dur,
    },
    /// Provider `get`; results surface later as `GetResult` events
    /// tagged with `token` (query via [`DhtRequest::NonEmptyGetResults`]).
    Get { ns: Ns, rid: Rid, token: u64 },
    /// How many items (live or not) does this node store under `ns`?
    NsLen(Ns),
    /// How many `GetResult` events with at least one item has this node
    /// observed so far?
    NonEmptyGetResults,
}

/// Typed responses to [`DhtRequest`]s.
#[derive(Clone, Debug)]
pub enum DhtResponse {
    Done,
    Count(usize),
}

impl DhtResponse {
    /// Unwrap a [`DhtResponse::Count`]; panics on a variant mismatch.
    pub fn into_count(self) -> usize {
        match self {
            DhtResponse::Count(c) => c,
            DhtResponse::Done => panic!("expected Count, got Done"),
        }
    }
}

impl<V: Wire + Clone + Send + 'static> Service for DhtNode<V> {
    type Req = DhtRequest<V>;
    type Resp = DhtResponse;

    fn on_request(&mut self, ctx: &mut Ctx<Self::Msg>, req: DhtRequest<V>) -> DhtResponse {
        let now = ctx.now;
        match req {
            DhtRequest::Put {
                ns,
                rid,
                iid,
                val,
                lifetime,
            } => {
                let mut env = CtxEnv { ctx };
                let mut events = Vec::new();
                self.dht
                    .put(&mut env, ns, rid, iid, val, lifetime, &mut events);
                self.events.extend(events.into_iter().map(|e| (now, e)));
                DhtResponse::Done
            }
            DhtRequest::Get { ns, rid, token } => {
                let mut env = CtxEnv { ctx };
                let mut events = Vec::new();
                self.dht.get(&mut env, ns, rid, token, &mut events);
                self.events.extend(events.into_iter().map(|e| (now, e)));
                DhtResponse::Done
            }
            DhtRequest::NsLen(ns) => DhtResponse::Count(self.dht.store.ns_len(ns)),
            DhtRequest::NonEmptyGetResults => DhtResponse::Count(
                self.events_where(
                    |e| matches!(e, DhtEvent::GetResult { items, .. } if !items.is_empty()),
                )
                .count(),
            ),
        }
    }
}

/// Build a simulator hosting `n` pre-stabilized nodes (balanced
/// bootstrap) on the overlay `cfg` names. Node ids are `0..n`.
pub fn stabilized_sim<V: Wire + Clone + Send + 'static>(
    n: usize,
    cfg: DhtConfig,
    net: pier_simnet::NetConfig,
) -> pier_simnet::Sim<DhtNode<V>> {
    let mut sim = pier_simnet::Sim::new(net);
    for dht in Dht::stabilized(n, &cfg) {
        sim.add_node(DhtNode::with_dht(dht));
    }
    sim
}

/// [`stabilized_sim`] on CAN, whatever overlay `cfg` names.
pub fn stabilized_can_sim<V: Wire + Clone + Send + 'static>(
    n: usize,
    cfg: DhtConfig,
    net: pier_simnet::NetConfig,
) -> pier_simnet::Sim<DhtNode<V>> {
    stabilized_sim(n, cfg.with_overlay(OverlayKind::Can), net)
}

/// [`stabilized_sim`] on Chord, whatever overlay `cfg` names.
pub fn stabilized_chord_sim<V: Wire + Clone + Send + 'static>(
    n: usize,
    cfg: DhtConfig,
    net: pier_simnet::NetConfig,
) -> pier_simnet::Sim<DhtNode<V>> {
    stabilized_sim(n, cfg.with_overlay(OverlayKind::Chord), net)
}
