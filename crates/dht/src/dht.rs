//! The provider: the glue between routing layer and storage manager
//! (§3.2.3), offering `put`/`get`/`renew`/`multicast`/`lscan`/`newData`.
//!
//! DHT operations follow the paper's footnote 6: a `lookup` locates the
//! owner, then the (possibly large) data message travels *directly* to
//! it rather than hopping along the overlay — "the bandwidth savings of
//! not having a large message hop along the overlay network outweighs the
//! small chance" of a stale lookup, which is healed by retry/re-homing.

use std::collections::BTreeMap;

use pier_simnet::time::Time;
use pier_simnet::{NodeId, Wire};

use crate::can::CanState;
use crate::chord::{ring_of_key, ChordState};
use crate::env::{send_metered, DhtEnv};
use crate::event::DhtEvent;
use crate::geom::{Point, Zone};
use crate::msg::{CanMsg, ChordMsg, DhtMsg, Entry, FindPurpose, RepairScope};
use crate::storage::StorageManager;
use crate::traffic::TrafficMeter;
use crate::{key_of, DhtConfig, Ns, OverlayKind, Rid, DHT_TICK_TOKEN, ROUTE_TTL};

/// The routing layer in use on this node.
#[derive(Debug, Clone)]
pub enum Overlay {
    Can(CanState),
    Chord(ChordState),
}

enum Pending<V> {
    Put(Entry<V>),
    Get { ns: Ns, rid: Rid, user_token: u64 },
}

struct PendingOp<V> {
    key: u64,
    issued: Time,
    retries: u32,
    op: Pending<V>,
}

/// One node's complete DHT stack: overlay + storage manager + provider.
pub struct Dht<V> {
    pub cfg: DhtConfig,
    pub overlay: Overlay,
    pub store: StorageManager<V>,
    /// Standby copies of items whose primary is elsewhere (k ≥ 2).
    /// Kept apart from the primary [`Self::store`] so probes and
    /// `lscan` never see the same logical item twice; read only by `get`
    /// fall-through and anti-entropy repair. Always empty at k = 1.
    pub replicas: StorageManager<V>,
    pub meter: TrafficMeter,
    me: NodeId,
    pending: BTreeMap<u64, PendingOp<V>>,
    awaiting_get: BTreeMap<u64, u64>,
    next_token: u64,
    seen_mcast: BTreeMap<u64, Time>,
    bootstrap: Option<NodeId>,
    join_sent: Time,
    tick_count: u64,
    /// Last anti-entropy pull, for rate limiting repair bursts.
    last_repair: Time,
}

impl<V: Wire + Clone> Dht<V> {
    pub fn new(cfg: DhtConfig, me: NodeId) -> Self {
        let overlay = match cfg.overlay {
            OverlayKind::Can => Overlay::Can(CanState::new(cfg.dims, me)),
            OverlayKind::Chord => Overlay::Chord(ChordState::new(me)),
        };
        Dht {
            cfg,
            overlay,
            store: StorageManager::new(),
            replicas: StorageManager::new(),
            meter: TrafficMeter::default(),
            me,
            pending: BTreeMap::new(),
            awaiting_get: BTreeMap::new(),
            next_token: 1,
            seen_mcast: BTreeMap::new(),
            bootstrap: None,
            join_sent: Time::ZERO,
            tick_count: 0,
            last_repair: Time::ZERO,
        }
    }

    /// Construct a node with a pre-stabilized CAN state (balanced
    /// bootstrap for large experiments).
    pub fn with_can(cfg: DhtConfig, me: NodeId, can: CanState) -> Self {
        let mut d = Self::new(cfg, me);
        d.overlay = Overlay::Can(can);
        d
    }

    /// Construct a node with a pre-stabilized Chord state.
    pub fn with_chord(cfg: DhtConfig, me: NodeId, chord: ChordState) -> Self {
        let mut d = Self::new(cfg, me);
        d.overlay = Overlay::Chord(chord);
        d
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    pub fn is_joined(&self) -> bool {
        match &self.overlay {
            Overlay::Can(c) => c.joined,
            Overlay::Chord(c) => c.joined,
        }
    }

    pub fn can(&self) -> Option<&CanState> {
        match &self.overlay {
            Overlay::Can(c) => Some(c),
            _ => None,
        }
    }

    pub fn chord(&self) -> Option<&ChordState> {
        match &self.overlay {
            Overlay::Chord(c) => Some(c),
            _ => None,
        }
    }

    /// Start the node: create a new overlay (`bootstrap = None`) or join
    /// an existing one via any member node (Table 1's `join(landmark)`).
    pub fn start(&mut self, env: &mut dyn DhtEnv<V>, bootstrap: Option<NodeId>) {
        self.bootstrap = bootstrap;
        match bootstrap {
            None => match &mut self.overlay {
                Overlay::Can(c) => c.start_first(),
                Overlay::Chord(c) => c.start_first(),
            },
            Some(b) => {
                self.join_sent = env.now();
                match &mut self.overlay {
                    Overlay::Can(c) => c.start_join(env, &mut self.meter, b),
                    Overlay::Chord(c) => c.start_join(env, &mut self.meter, b),
                }
            }
        }
        env.timer(self.cfg.tick, DHT_TICK_TOKEN);
    }

    /// Does this node currently own `key`?
    pub fn owns_key(&self, key: u64) -> bool {
        match &self.overlay {
            Overlay::Can(c) => c.owns_point(Point::from_key(key, c.d)),
            Overlay::Chord(c) => c.owns_pos(ring_of_key(key)),
        }
    }

    /// Provider `put` (Table 3): store `val` under (ns, rid, iid) with a
    /// soft-state `lifetime`. Local fast path when we own the key.
    #[allow(clippy::too_many_arguments)] // Table 3 signature: (ns, rid, iid, item, lifetime)
    pub fn put(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        ns: Ns,
        rid: Rid,
        iid: u32,
        val: V,
        lifetime: pier_simnet::time::Dur,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let key = key_of(ns, rid);
        let entry = Entry {
            ns,
            rid,
            iid,
            key,
            expires: env.now() + lifetime,
            val,
        };
        if self.owns_key(key) {
            self.store_entry(env, entry, events);
        } else {
            self.lookup(env, key, Pending::Put(entry), events);
        }
    }

    /// Provider `renew` (Table 3): identical mechanics to `put` — an
    /// existing (ns, rid, iid) has its value replaced and its lifetime
    /// extended without re-firing `newData`.
    #[allow(clippy::too_many_arguments)] // Table 3 signature, mirroring `put`
    pub fn renew(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        ns: Ns,
        rid: Rid,
        iid: u32,
        val: V,
        lifetime: pier_simnet::time::Dur,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        self.put(env, ns, rid, iid, val, lifetime, events);
    }

    /// Provider `get` (Table 3): asynchronous unless the key is local, in
    /// which case the result event is emitted synchronously (footnote 3).
    pub fn get(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        ns: Ns,
        rid: Rid,
        user_token: u64,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let key = key_of(ns, rid);
        if self.owns_key(key) {
            let items = self.live_items(ns, rid, env.now());
            events.push(DhtEvent::GetResult {
                token: user_token,
                items,
            });
        } else {
            self.lookup(
                env,
                key,
                Pending::Get {
                    ns,
                    rid,
                    user_token,
                },
                events,
            );
        }
    }

    /// Provider `lscan` (Table 3): iterate locally stored items of `ns`.
    pub fn lscan(&self, ns: Ns) -> impl Iterator<Item = &Entry<V>> {
        self.store.lscan(ns)
    }

    /// Multicast `payload` to every node (Table 3's `multicast`,
    /// implementing the content-based multicast of the paper's \[18\]).
    pub fn multicast(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        payload: V,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let id = env.rand64();
        let can_rect = match &self.overlay {
            Overlay::Can(c) => Some(Zone::whole(c.d)),
            Overlay::Chord(_) => None,
        };
        if let Some(rect) = can_rect {
            // Route the whole-space rectangle like any other fragment: the
            // initiator rarely owns the center of the space, and its own
            // delivery arrives when the flood reaches its zone.
            self.route_can_mcast(
                env,
                CanMsg::Mcast {
                    id,
                    origin: self.me,
                    rect,
                    payload,
                    ttl: ROUTE_TTL,
                },
                events,
            );
            return;
        }
        let children = match &self.overlay {
            Overlay::Chord(c) => c.broadcast_children(c.ring),
            Overlay::Can(_) => unreachable!(),
        };
        self.deliver_mcast(env.now(), id, self.me, &payload, events);
        for (child, limit) in children {
            send_metered(
                env,
                &mut self.meter,
                child,
                DhtMsg::Chord(ChordMsg::Bcast {
                    id,
                    origin: self.me,
                    payload: payload.clone(),
                    limit,
                }),
            );
        }
    }

    /// Graceful departure (Table 1's `leave()`).
    pub fn leave(&mut self, env: &mut dyn DhtEnv<V>) {
        if let Overlay::Can(c) = &mut self.overlay {
            c.leave(env, &mut self.meter, &mut self.store);
        }
        // Chord leave: soft state ages out; successors stabilize around us.
    }

    /// Live items for a `get`: the primary store, plus — under k > 1 —
    /// any replica copies of instances the primary store is missing.
    /// The replica fall-through is what answers reads during the window
    /// between a takeover and the completion of anti-entropy repair;
    /// dedup by instanceID keeps the reply a set, never a multiset.
    fn live_items(&self, ns: Ns, rid: Rid, now: Time) -> Vec<Entry<V>> {
        let mut items: Vec<Entry<V>> = self
            .store
            .get(ns, rid)
            .iter()
            .filter(|e| e.expires > now)
            .cloned()
            .collect();
        if self.cfg.replication > 1 {
            for e in self.replicas.get(ns, rid) {
                if e.expires > now && !items.iter().any(|x| x.iid == e.iid) {
                    items.push(e.clone());
                }
            }
        }
        items
    }

    fn store_entry(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        entry: Entry<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        self.replicate(env, &entry);
        if let Some(stored) = self.store.store_new(entry) {
            events.push(DhtEvent::NewData {
                entry: stored.clone(),
            });
        }
    }

    /// Fan a primary-stored entry out to the replica set (k - 1 peers).
    /// Runs on stores *and* renewals, so replica expiries track the
    /// primary's and copies at ex-replica peers simply age out.
    fn replicate(&mut self, env: &mut dyn DhtEnv<V>, entry: &Entry<V>) {
        if self.cfg.replication <= 1 {
            return;
        }
        for peer in self.replica_targets() {
            send_metered(
                env,
                &mut self.meter,
                peer,
                DhtMsg::Replicate {
                    entry: entry.clone(),
                },
            );
        }
    }

    /// The peers holding this node's replica copies, by the overlay's
    /// placement rule (CAN: lowest-id neighbors; Chord: successor list).
    fn replica_targets(&self) -> Vec<NodeId> {
        let extra = self.cfg.replication.saturating_sub(1);
        if extra == 0 {
            return Vec::new();
        }
        match &self.overlay {
            Overlay::Can(c) => c.replica_peers(extra),
            Overlay::Chord(c) => c.replica_peers(extra),
        }
    }

    /// Issue a routing-layer lookup, remembering the op to run on reply.
    fn lookup(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        key: u64,
        op: Pending<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(
            token,
            PendingOp {
                key,
                issued: env.now(),
                retries: 0,
                op,
            },
        );
        self.send_lookup(env, key, token, events);
    }

    fn send_lookup(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        key: u64,
        token: u64,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        enum Step {
            SendCan(NodeId),
            Resolved(NodeId),
            SendChord(NodeId, u64),
            Stuck,
        }
        let step = match &self.overlay {
            Overlay::Can(c) => {
                let p = Point::from_key(key, c.d);
                match c.next_hop(p) {
                    Some(next) => Step::SendCan(next),
                    // No neighbors: single-node overlay; retried on tick.
                    None => Step::Stuck,
                }
            }
            Overlay::Chord(c) => {
                let pos = ring_of_key(key);
                match c.find_succ_step(pos) {
                    Ok((_, owner)) => Step::Resolved(owner),
                    Err(next) => Step::SendChord(next, pos),
                }
            }
        };
        match step {
            Step::SendCan(next) => send_metered(
                env,
                &mut self.meter,
                next,
                DhtMsg::Can(CanMsg::Lookup {
                    key,
                    token,
                    origin: self.me,
                    ttl: ROUTE_TTL,
                }),
            ),
            Step::Resolved(owner) => self.resolve_lookup(env, token, owner, events),
            Step::SendChord(next, pos) => send_metered(
                env,
                &mut self.meter,
                next,
                DhtMsg::Chord(ChordMsg::FindSucc {
                    target: pos,
                    token,
                    origin: self.me,
                    purpose: FindPurpose::Lookup,
                    ttl: ROUTE_TTL,
                }),
            ),
            Step::Stuck => {}
        }
    }

    /// The owner of a pending op's key is known: ship the op to it.
    fn resolve_lookup(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        token: u64,
        owner: NodeId,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let Some(p) = self.pending.remove(&token) else {
            return; // duplicate or expired reply
        };
        match p.op {
            Pending::Put(entry) => {
                if owner == self.me {
                    self.store_entry(env, entry, events);
                } else {
                    send_metered(env, &mut self.meter, owner, DhtMsg::Put { entry });
                }
            }
            Pending::Get {
                ns,
                rid,
                user_token,
            } => {
                if owner == self.me {
                    let items = self.live_items(ns, rid, env.now());
                    events.push(DhtEvent::GetResult {
                        token: user_token,
                        items,
                    });
                } else {
                    self.awaiting_get.insert(token, user_token);
                    send_metered(
                        env,
                        &mut self.meter,
                        owner,
                        DhtMsg::Get {
                            ns,
                            rid,
                            token,
                            origin: self.me,
                        },
                    );
                }
            }
        }
    }

    fn deliver_mcast(
        &mut self,
        now: Time,
        id: u64,
        origin: NodeId,
        payload: &V,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        if self.seen_mcast.insert(id, now).is_none() {
            events.push(DhtEvent::Multicast {
                origin,
                payload: payload.clone(),
            });
        }
    }

    /// Handle a multicast rectangle we own the center of: deliver, then
    /// recurse into the uncovered sub-rectangles (directed flood).
    #[allow(clippy::too_many_arguments)]
    fn process_can_mcast(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        id: u64,
        origin: NodeId,
        rect: Zone,
        payload: V,
        ttl: u16,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        self.deliver_mcast(env.now(), id, origin, &payload, events);
        let Overlay::Can(c) = &self.overlay else {
            return;
        };
        let d = c.d;
        let center = rect.center(d);
        let Some(zone) = c.zones.iter().find(|z| z.contains(center, d)).copied() else {
            return; // routing raced a zone change; retried by sender's TTL
        };
        let Some(covered) = zone.intersection(&rect, d) else {
            return;
        };
        let subs = rect.subtract(&covered, d);
        if ttl == 0 {
            return;
        }
        for sub in subs {
            self.route_can_mcast(
                env,
                CanMsg::Mcast {
                    id,
                    origin,
                    rect: sub,
                    payload: payload.clone(),
                    ttl: ttl - 1,
                },
                events,
            );
        }
    }

    /// Route a CAN mcast fragment toward its rectangle's center; handle
    /// locally if we own it.
    fn route_can_mcast(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        msg: CanMsg<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let CanMsg::Mcast {
            id,
            origin,
            rect,
            payload,
            ttl,
        } = msg
        else {
            unreachable!()
        };
        let Overlay::Can(c) = &self.overlay else {
            return;
        };
        let center = rect.center(c.d);
        if c.owns_point(center) {
            self.process_can_mcast(env, id, origin, rect, payload, ttl, events);
        } else if let Some(next) = c.next_hop(center) {
            send_metered(
                env,
                &mut self.meter,
                next,
                DhtMsg::Can(CanMsg::Mcast {
                    id,
                    origin,
                    rect,
                    payload,
                    ttl,
                }),
            );
        }
    }

    /// Main message dispatcher.
    pub fn handle_message(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        from: NodeId,
        msg: DhtMsg<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let before = events.len();
        match msg {
            DhtMsg::Can(m) => self.handle_can(env, from, m, events),
            DhtMsg::Chord(m) => self.handle_chord(env, from, m, events),
            DhtMsg::LookupReply { token, .. } => {
                self.resolve_lookup(env, token, from, events);
            }
            DhtMsg::Put { entry } => {
                self.store_entry(env, entry, events);
            }
            DhtMsg::Get {
                ns,
                rid,
                token,
                origin,
            } => {
                let items = self.live_items(ns, rid, env.now());
                send_metered(
                    env,
                    &mut self.meter,
                    origin,
                    DhtMsg::GetReply { token, items },
                );
            }
            DhtMsg::GetReply { token, items } => {
                if let Some(user_token) = self.awaiting_get.remove(&token) {
                    events.push(DhtEvent::GetResult {
                        token: user_token,
                        items,
                    });
                }
            }
            DhtMsg::MoveItems { items } => {
                for entry in items {
                    // Re-homed items were announced at their prior home;
                    // still fire newData if the instance is new here, so
                    // probes that raced the move are not lost.
                    self.store_entry(env, entry, events);
                }
            }
            DhtMsg::Replicate { entry } => {
                if self.cfg.replication > 1 {
                    // Standby copy: no newData, no onward fan-out, and a
                    // late duplicate must not shorten a fresher copy.
                    self.replicas.store_no_regress(entry);
                }
            }
            DhtMsg::RepairRequest { scope } => {
                let now = env.now();
                let d = self.cfg.dims;
                let mut seen = std::collections::HashSet::new();
                let items: Vec<Entry<V>> = self
                    .store
                    .iter_all()
                    .chain(self.replicas.iter_all())
                    .filter(|e| e.expires > now && scope.covers(e.key, d))
                    .filter(|e| seen.insert((e.ns, e.rid, e.iid)))
                    .cloned()
                    .collect();
                if !items.is_empty() {
                    send_metered(env, &mut self.meter, from, DhtMsg::RepairReply { items });
                }
            }
            DhtMsg::RepairReply { items } => {
                let now = env.now();
                for entry in items {
                    // Only adopt items we own *now* — the responder
                    // answered against our advertised scope, but routing
                    // may have shifted again while the reply was in
                    // flight, and a stale copy must not regress a renewal
                    // that already reached us directly.
                    if entry.expires > now && self.owns_key(entry.key) {
                        match self.store.store_no_regress(entry.clone()) {
                            Some(true) => {
                                self.replicate(env, &entry);
                                events.push(DhtEvent::NewData { entry });
                            }
                            Some(false) => self.replicate(env, &entry),
                            None => {}
                        }
                    }
                }
            }
        }
        self.maybe_repair(env, before, events);
    }

    fn handle_can(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        from: NodeId,
        msg: CanMsg<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let Overlay::Can(c) = &mut self.overlay else {
            return;
        };
        match msg {
            CanMsg::JoinLocate { joiner, p, ttl } => {
                if c.owns_point(p) {
                    c.handle_join_locate(env, &mut self.meter, &mut self.store, joiner, p, events);
                } else if ttl > 0 {
                    if let Some(next) = c.next_hop(p) {
                        send_metered(
                            env,
                            &mut self.meter,
                            next,
                            DhtMsg::Can(CanMsg::JoinLocate {
                                joiner,
                                p,
                                ttl: ttl - 1,
                            }),
                        );
                    }
                }
            }
            CanMsg::JoinOffer {
                zone,
                neighbors,
                items,
            } => {
                c.handle_join_offer(
                    env,
                    &mut self.meter,
                    &mut self.store,
                    zone,
                    neighbors,
                    items,
                    events,
                );
            }
            CanMsg::NeighborUpdate { zones } => {
                c.handle_neighbor_update(env.now(), from, zones);
            }
            CanMsg::Heartbeat { zones, neighbors } => {
                c.handle_heartbeat(env.now(), from, zones, neighbors);
            }
            CanMsg::Takeover { dead, zones } => {
                c.handle_takeover(env.now(), from, dead, zones, events);
            }
            CanMsg::Leave {
                zones,
                items,
                neighbors,
            } => {
                c.handle_leave(
                    env,
                    &mut self.meter,
                    &mut self.store,
                    from,
                    zones,
                    items,
                    neighbors,
                    events,
                );
            }
            CanMsg::Lookup {
                key,
                token,
                origin,
                ttl,
            } => {
                let p = Point::from_key(key, c.d);
                if c.owns_point(p) {
                    send_metered(
                        env,
                        &mut self.meter,
                        origin,
                        DhtMsg::LookupReply { token, key },
                    );
                } else if ttl > 0 {
                    if let Some(next) = c.next_hop(p) {
                        send_metered(
                            env,
                            &mut self.meter,
                            next,
                            DhtMsg::Can(CanMsg::Lookup {
                                key,
                                token,
                                origin,
                                ttl: ttl - 1,
                            }),
                        );
                    }
                }
            }
            CanMsg::Mcast {
                id,
                origin,
                rect,
                payload,
                ttl,
            } => {
                self.route_can_mcast(
                    env,
                    CanMsg::Mcast {
                        id,
                        origin,
                        rect,
                        payload,
                        ttl,
                    },
                    events,
                );
            }
        }
    }

    fn handle_chord(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        from: NodeId,
        msg: ChordMsg<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let Overlay::Chord(c) = &mut self.overlay else {
            return;
        };
        match msg {
            ChordMsg::FindSucc {
                target,
                token,
                origin,
                purpose,
                ttl,
            } => match c.find_succ_step(target) {
                Ok((succ_ring, succ)) => {
                    send_metered(
                        env,
                        &mut self.meter,
                        origin,
                        DhtMsg::Chord(ChordMsg::FoundSucc {
                            token,
                            target,
                            purpose,
                            succ_ring,
                            succ,
                        }),
                    );
                }
                Err(next) => {
                    if ttl > 0 {
                        send_metered(
                            env,
                            &mut self.meter,
                            next,
                            DhtMsg::Chord(ChordMsg::FindSucc {
                                target,
                                token,
                                origin,
                                purpose,
                                ttl: ttl - 1,
                            }),
                        );
                    }
                }
            },
            ChordMsg::FoundSucc {
                token,
                target,
                purpose,
                succ_ring,
                succ,
            } => match purpose {
                FindPurpose::Join => {
                    c.complete_join(env, &mut self.meter, succ_ring, succ, events);
                }
                FindPurpose::Finger(k) => {
                    let _ = target;
                    c.set_finger(k as usize, succ_ring, succ);
                }
                FindPurpose::Lookup => {
                    self.resolve_lookup(env, token, succ, events);
                }
            },
            ChordMsg::GetNeighborhood => {
                let reply = ChordMsg::Neighborhood {
                    pred: c.predecessor,
                    succs: c.successors.clone(),
                };
                send_metered(env, &mut self.meter, from, DhtMsg::Chord(reply));
            }
            ChordMsg::Neighborhood { pred, succs } => {
                c.handle_neighborhood(env, &mut self.meter, from, pred, succs);
            }
            ChordMsg::Notify { ring } => {
                c.handle_notify(env.now(), from, ring, events);
            }
            ChordMsg::Bcast {
                id,
                origin,
                payload,
                limit,
            } => {
                let children = c.broadcast_children(limit);
                self.deliver_mcast(env.now(), id, origin, &payload, events);
                for (child, child_limit) in children {
                    send_metered(
                        env,
                        &mut self.meter,
                        child,
                        DhtMsg::Chord(ChordMsg::Bcast {
                            id,
                            origin,
                            payload: payload.clone(),
                            limit: child_limit,
                        }),
                    );
                }
            }
        }
    }

    /// Handle a host timer. Returns `true` if the token belonged to the
    /// DHT layer.
    pub fn handle_timer(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        token: u64,
        events: &mut Vec<DhtEvent<V>>,
    ) -> bool {
        if token != DHT_TICK_TOKEN {
            return false;
        }
        let before = events.len();
        self.tick(env, events);
        self.maybe_repair(env, before, events);
        env.timer(self.cfg.tick, DHT_TICK_TOKEN);
        true
    }

    /// Anti-entropy: if the dispatch that just ran changed this node's
    /// ownership region (takeover claim, zone absorption, predecessor
    /// loss, successor promotion — all signalled by
    /// [`DhtEvent::LocationMapChanged`]), promote matching local replica
    /// copies to primary and pull the rest of the newly owned region
    /// from the likely replica holders. This is how rehash/stage/mini
    /// soft state heals without waiting for the next renewal round.
    fn maybe_repair(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        before: usize,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        if self.cfg.replication <= 1 {
            return;
        }
        if !events[before..]
            .iter()
            .any(|e| matches!(e, DhtEvent::LocationMapChanged))
        {
            return;
        }
        let now = env.now();
        if self.last_repair != Time::ZERO && now.since(self.last_repair) < self.cfg.tick {
            return;
        }
        self.last_repair = now;
        self.promote_replicas(env, events);
        self.reseed_replicas(env);
        let scope = match &self.overlay {
            Overlay::Can(c) => RepairScope::Zones(c.zones.clone()),
            Overlay::Chord(c) => {
                let (from, to) = c.owned_interval();
                RepairScope::Ring { from, to }
            }
        };
        for peer in self.repair_peers() {
            send_metered(
                env,
                &mut self.meter,
                peer,
                DhtMsg::RepairRequest {
                    scope: scope.clone(),
                },
            );
        }
    }

    /// Move replica-held items whose key this node now owns into the
    /// primary store (firing `newData` for instances new here — the
    /// self-serve half of repair: under the successor/neighbor placement
    /// rule, the node absorbing a dead peer's region usually *is* one of
    /// its replicas).
    fn promote_replicas(&mut self, env: &mut dyn DhtEnv<V>, events: &mut Vec<DhtEvent<V>>) {
        let now = env.now();
        let owned: std::collections::HashSet<u64> = self
            .replicas
            .iter_all()
            .map(|e| e.key)
            .filter(|&k| self.owns_key(k))
            .collect();
        if owned.is_empty() {
            return;
        }
        let promoted = self.replicas.extract_not_owned(|k| !owned.contains(&k));
        for entry in promoted {
            if entry.expires > now {
                self.replicate(env, &entry);
                if self.store.store_no_regress(entry.clone()) == Some(true) {
                    events.push(DhtEvent::NewData { entry });
                }
            }
        }
    }

    /// Re-push every live primary entry to the *current* replica set.
    /// The neighborhood just changed, and a dead peer may have been this
    /// node's only replica holder: items published once with no renewal
    /// loop would otherwise sit at one copy until they expire, losing
    /// the k-durability guarantee on the next failure. Copies left at
    /// ex-replicas are harmless — they age out with the entry's own
    /// lifetime and serve as extra repair sources meanwhile.
    fn reseed_replicas(&mut self, env: &mut dyn DhtEnv<V>) {
        let now = env.now();
        let live: Vec<Entry<V>> = self
            .store
            .iter_all()
            .filter(|e| e.expires > now)
            .cloned()
            .collect();
        for entry in &live {
            self.replicate(env, entry);
        }
    }

    /// The peers this node asks for repair data: every CAN neighbor, or
    /// the Chord successor list plus predecessor — the union of all
    /// placement targets whose primaries could have replicated into the
    /// region we now own.
    fn repair_peers(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = match &self.overlay {
            Overlay::Can(c) => c.neighbors.keys().copied().collect(),
            Overlay::Chord(c) => {
                let mut v: Vec<NodeId> = c.successors.iter().map(|&(_, id)| id).collect();
                if let Some((_, p)) = c.predecessor {
                    v.push(p);
                }
                v
            }
        };
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&id| id != self.me);
        ids
    }

    /// Periodic work: overlay maintenance, soft-state expiry, lookup
    /// retries, re-homing, join retry.
    fn tick(&mut self, env: &mut dyn DhtEnv<V>, events: &mut Vec<DhtEvent<V>>) {
        self.tick_count += 1;
        let now = env.now();
        match &mut self.overlay {
            Overlay::Can(c) => c.tick(env, &mut self.meter, &self.cfg, events),
            Overlay::Chord(c) => c.tick(env, &mut self.meter, &self.cfg, events),
        }
        self.store.sweep_expired(now);
        if self.cfg.replication > 1 {
            // Replica copies age out exactly like primaries: a replica
            // whose primary stopped renewing (or re-targeted its fan-out
            // after a neighborhood change) is stale soft state.
            self.replicas.sweep_expired(now);
        }

        // Retry join if the offer never arrived.
        if !self.is_joined() {
            if let Some(b) = self.bootstrap {
                if now.since(self.join_sent) > self.cfg.lookup_retry {
                    self.join_sent = now;
                    match &mut self.overlay {
                        Overlay::Can(c) => c.start_join(env, &mut self.meter, b),
                        Overlay::Chord(c) => c.start_join(env, &mut self.meter, b),
                    }
                }
            }
        }

        // Retry stale lookups with exponential backoff: under congestion
        // a reply may sit minutes deep in an inbound queue, and dropping
        // the op would lose data. Abandon only after ~10 minutes.
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                let backoff = self
                    .cfg
                    .lookup_retry
                    .saturating_mul(1u64 << p.retries.min(5));
                now.since(p.issued) > backoff
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            let (key, give_up) = {
                let p = self.pending.get_mut(&token).unwrap();
                p.retries += 1;
                p.issued = now;
                (p.key, p.retries > 12)
            };
            if give_up {
                self.pending.remove(&token);
                self.awaiting_get.remove(&token);
            } else if self.owns_key(key) {
                // Ownership shifted to us while the lookup was in flight.
                self.resolve_lookup(env, token, self.me, events);
            } else {
                self.send_lookup(env, key, token, events);
            }
        }

        // Drop old multicast dedup records.
        let horizon = pier_simnet::time::Dur::from_secs(120);
        self.seen_mcast.retain(|_, t| now.since(*t) < horizon);

        // Re-home items we no longer own (every few ticks): the
        // self-healing that follows overlay churn.
        if self.cfg.rehome && self.is_joined() && self.tick_count.is_multiple_of(4) {
            let not_mine: std::collections::HashSet<u64> = self
                .store
                .iter_all()
                .filter(|e| !self.owns_key(e.key))
                .map(|e| e.key)
                .collect();
            if !not_mine.is_empty() {
                let moved = self.store.extract_not_owned(|k| !not_mine.contains(&k));
                for entry in moved {
                    let key = entry.key;
                    self.lookup(env, key, Pending::Put(entry), events);
                }
            }
        }
    }

    /// Number of distinct in-flight lookups (for tests/diagnostics).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }
}
