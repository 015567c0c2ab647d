//! The provider: the glue between routing layer and storage manager
//! (§3.2.3), offering `put`/`get`/`renew`/`multicast`/`lscan`/`newData`.
//!
//! DHT operations follow the paper's footnote 6: a `lookup` locates the
//! owner, then the (possibly large) data message travels *directly* to
//! it rather than hopping along the overlay — "the bandwidth savings of
//! not having a large message hop along the overlay network outweighs the
//! small chance" of a stale lookup, which is healed by retry/re-homing.
//!
//! The provider does not know which overlay it runs on. Everything it
//! asks of the routing layer goes through the methods of [`Overlay`]
//! (`overlay.rs`, the paper's Table 1), and what it lends downward for
//! such a call — host, meter, primary store, upcall list — travels as
//! one [`Lend`]. What stays here is what is the same on every overlay:
//! pending lookups and their retries, both stores, replication,
//! anti-entropy repair, re-homing, multicast dedup and the tick.

use pier_simnet::time::{Dur, Time};
use pier_simnet::{NodeId, Wire};

use crate::can::CanState;
use crate::chord::ChordState;
use crate::env::{DhtEnv, Lend};
use crate::event::DhtEvent;
use crate::msg::{DhtMsg, Entry};
pub use crate::overlay::Overlay;
use crate::overlay::{LookupStep, Routed};
use crate::small_map::SmallMap;
use crate::storage::StorageManager;
use crate::traffic::TrafficMeter;
use crate::{key_of, DhtConfig, Ns, Rid, DHT_TICK_TOKEN};

/// Re-issue an unanswered lookup, or a join that got no offer, after
/// this long (lookups back off exponentially from here).
const LOOKUP_RETRY: Dur = Dur(4 * 1_000_000);

/// How many times an unanswered lookup is re-issued before it is
/// abandoned.
const LOOKUP_RETRIES: u32 = 12;

/// How long a lookup waits before its `retries`-th re-issue: doubling
/// from [`LOOKUP_RETRY`], capped at 32 ×.
const fn lookup_backoff(retries: u32) -> Dur {
    Dur(LOOKUP_RETRY.0 << if retries < 5 { retries } else { 5 })
}

/// How long after it was sent a lookup is abandoned, every backoff
/// waited out (about 19 minutes); a `get` shipped to an owner that never
/// answers is abandoned after as long.
const LOOKUP_GIVE_UP: Dur = {
    let (mut total, mut r) = (0, 0);
    while r <= LOOKUP_RETRIES {
        total += lookup_backoff(r).0;
        r += 1;
    }
    Dur(total)
};

/// Lend the routing layer — or one of the provider's own sends — what
/// it needs for one call. A macro, not a method: the borrows must stay
/// field-wise, so `self.overlay` can be borrowed beside them.
macro_rules! lend {
    ($dht:ident, $env:ident, $events:ident) => {
        &mut Lend {
            env: $env,
            meter: &mut $dht.meter,
            store: &mut $dht.store,
            events: $events,
        }
    };
}

enum Pending<V> {
    Put(Entry<V>),
    Get {
        ns: Ns,
        rid: Rid,
        user_token: u64,
    },
    /// A get shipped to its owner, awaiting the `GetReply`.
    Shipped(u64),
}

/// An op in flight: re-issued when `due` passes while it has retries
/// left, abandoned when it has none — an abandoned get is answered
/// empty, so its caller's request is never left open.
struct PendingOp<V> {
    key: u64,
    due: Time,
    retries_left: u32,
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
    /// Every op in flight, by lookup token.
    pending: SmallMap<PendingOp<V>>,
    next_token: u64,
    /// When each multicast id was last delivered, for dedup.
    seen_mcast: SmallMap<Time>,
    /// The node this one joins the overlay through; `None` creates one.
    pub bootstrap: Option<NodeId>,
    join_sent: Time,
    tick_count: u64,
    /// Last anti-entropy pull, for rate limiting repair bursts.
    last_repair: Time,
}

impl<V: Wire + Clone> Dht<V> {
    pub fn new(cfg: DhtConfig, me: NodeId) -> Self {
        let overlay = Overlay::new(&cfg, me);
        Self::with_overlay(cfg, me, overlay)
    }

    /// Construct a node with a pre-stabilized CAN state (balanced
    /// bootstrap for large experiments).
    pub fn with_can(cfg: DhtConfig, me: NodeId, can: CanState) -> Self {
        Self::with_overlay(cfg, me, Overlay::Can(can))
    }

    /// Pre-stabilized stacks for ids `0..n` on the overlay `cfg` names,
    /// each built as it is taken.
    pub fn stabilized(n: usize, cfg: &DhtConfig) -> impl Iterator<Item = Self> {
        let cfg = cfg.clone();
        Overlay::stabilized(n, &cfg)
            .into_iter()
            .enumerate()
            .map(move |(i, overlay)| Self::with_overlay(cfg.clone(), i as NodeId, overlay))
    }

    fn with_overlay(cfg: DhtConfig, me: NodeId, overlay: Overlay) -> Self {
        Dht {
            cfg,
            overlay,
            store: StorageManager::new(),
            replicas: StorageManager::new(),
            meter: TrafficMeter::default(),
            me,
            pending: SmallMap::default(),
            next_token: 1,
            seen_mcast: SmallMap::default(),
            bootstrap: None,
            join_sent: Time::ZERO,
            tick_count: 0,
            last_repair: Time::ZERO,
        }
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    pub fn is_joined(&self) -> bool {
        self.overlay.joined()
    }

    pub fn chord(&self) -> Option<&ChordState> {
        self.overlay.chord()
    }

    /// Start the node: create a new overlay (`bootstrap = None`) or join
    /// an existing one via any member node (Table 1's `join(landmark)`).
    pub fn start(&mut self, env: &mut dyn DhtEnv<V>, bootstrap: Option<NodeId>) {
        self.bootstrap = bootstrap;
        match bootstrap {
            None => self.overlay.start_first(),
            Some(b) => self.join_via(env, b),
        }
        env.timer(self.cfg.tick, DHT_TICK_TOKEN);
    }

    /// Send (or re-send) the join request; the routing layer reports
    /// success as a `Joined` upcall when the reply arrives.
    fn join_via(&mut self, env: &mut dyn DhtEnv<V>, bootstrap: NodeId) {
        self.join_sent = env.now();
        let events = &mut Vec::new(); // a join request raises no upcall
        self.overlay.start_join(lend!(self, env, events), bootstrap);
    }

    /// Does this node currently own `key`?
    pub fn owns_key(&self, key: u64) -> bool {
        self.overlay.owns(key)
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
        lifetime: Dur,
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
        lifetime: Dur,
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
        let routed = self
            .overlay
            .multicast(lend!(self, env, events), id, self.me, payload);
        self.act_on(env, routed, events);
    }

    /// Graceful departure (Table 1's `leave()`). The node stays out: it
    /// forgets its bootstrap, so the tick's join retry does not bring
    /// it back.
    pub fn leave(&mut self, env: &mut dyn DhtEnv<V>) {
        self.bootstrap = None;
        let events = &mut Vec::new(); // leaving raises no upcall
        self.overlay.leave(lend!(self, env, events));
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
        self.replicate(env, &entry, events);
        if let Some(stored) = self.store.store_new(entry) {
            if env.wants_new_data(stored.ns) {
                events.push(DhtEvent::NewData {
                    entry: stored.clone(),
                });
            }
        }
    }

    /// Fan a primary-stored entry out to the replica set: the k - 1
    /// peers the overlay's placement rule names. Runs on stores *and*
    /// renewals, so replica expiries track the primary's and copies at
    /// ex-replica peers simply age out.
    fn replicate(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        entry: &Entry<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        if self.cfg.replication <= 1 {
            return;
        }
        for peer in self.overlay.replica_peers(self.cfg.replication - 1) {
            lend!(self, env, events).send(
                peer,
                DhtMsg::Replicate {
                    entry: entry.clone(),
                },
            );
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
                due: env.now() + lookup_backoff(0),
                retries_left: LOOKUP_RETRIES,
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
        match self.overlay.lookup_step(key, token, self.me) {
            LookupStep::Owner(owner) => self.resolve_lookup(env, token, owner, events),
            LookupStep::Forward(next, msg) => lend!(self, env, events).send(next, msg),
            LookupStep::Stuck => {}
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
        let Some(p) = self.pending.remove(token) else {
            return; // expired reply
        };
        match p.op {
            Pending::Put(entry) if owner == self.me => self.store_entry(env, entry, events),
            Pending::Put(entry) => lend!(self, env, events).send(owner, DhtMsg::Put { entry }),
            Pending::Get {
                ns,
                rid,
                user_token,
            } if owner == self.me => {
                let items = self.live_items(ns, rid, env.now());
                events.push(DhtEvent::GetResult {
                    token: user_token,
                    items,
                });
            }
            Pending::Get {
                ns,
                rid,
                user_token,
            } => {
                let origin = self.me;
                let get = DhtMsg::Get {
                    ns,
                    rid,
                    token,
                    origin,
                };
                lend!(self, env, events).send(owner, get);
                // Never re-issued: an owner that never answers is given
                // up on at the horizon a lookup is.
                let shipped = PendingOp {
                    due: env.now() + LOOKUP_GIVE_UP,
                    retries_left: 0,
                    op: Pending::Shipped(user_token),
                    ..p
                };
                self.pending.insert(token, shipped);
            }
            // A duplicate reply: the get already left.
            Pending::Shipped(_) => {
                self.pending.insert(token, p);
            }
        }
    }

    /// Act on what the routing layer left for the provider.
    fn act_on(
        &mut self,
        env: &mut dyn DhtEnv<V>,
        routed: Routed<V>,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        match routed {
            Routed::Nothing => {}
            Routed::Resolved { token, owner } => self.resolve_lookup(env, token, owner, events),
            Routed::Deliver {
                id,
                origin,
                payload,
            } => {
                // Dedup is the provider's: both overlays can reach a node
                // twice (a CAN node with several zones, a Chord ring
                // mid-stabilization).
                if self.seen_mcast.insert(id, env.now()).is_none() {
                    events.push(DhtEvent::Multicast { origin, payload });
                }
            }
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
            msg @ (DhtMsg::Can(_) | DhtMsg::Chord(_)) => {
                let routed = self.overlay.handle(lend!(self, env, events), from, msg);
                self.act_on(env, routed, events);
            }
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
                lend!(self, env, events).send(origin, DhtMsg::GetReply { token, items });
            }
            DhtMsg::GetReply { token, items } => {
                // It answers only a get shipped under its token.
                if let Some(&PendingOp {
                    op: Pending::Shipped(user_token),
                    ..
                }) = self.pending.get(token)
                {
                    self.pending.remove(token);
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
                let mut seen = std::collections::HashSet::new();
                let items: Vec<Entry<V>> = self
                    .store
                    .iter_all()
                    .chain(self.replicas.iter_all())
                    .filter(|e| e.expires > now && self.overlay.covers(&scope, e.key))
                    .filter(|e| seen.insert((e.ns, e.rid, e.iid)))
                    .cloned()
                    .collect();
                if !items.is_empty() {
                    lend!(self, env, events).send(from, DhtMsg::RepairReply { items });
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
                                self.replicate(env, &entry, events);
                                if env.wants_new_data(entry.ns) {
                                    events.push(DhtEvent::NewData { entry });
                                }
                            }
                            Some(false) => self.replicate(env, &entry, events),
                            None => {}
                        }
                    }
                }
            }
        }
        self.maybe_repair(env, before, events);
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
        self.reseed_replicas(env, events);
        let scope = self.overlay.repair_scope();
        for peer in self.overlay.repair_peers() {
            lend!(self, env, events).send(
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
        let overlay = &self.overlay;
        let promoted = self.replicas.extract_not_owned(|k| !overlay.owns(k));
        for entry in promoted {
            if entry.expires > now {
                self.replicate(env, &entry, events);
                if self.store.store_no_regress(entry.clone()) == Some(true)
                    && env.wants_new_data(entry.ns)
                {
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
    fn reseed_replicas(&mut self, env: &mut dyn DhtEnv<V>, events: &mut Vec<DhtEvent<V>>) {
        let now = env.now();
        let live: Vec<Entry<V>> = self
            .store
            .iter_all()
            .filter(|e| e.expires > now)
            .cloned()
            .collect();
        for entry in &live {
            self.replicate(env, entry, events);
        }
    }

    /// Periodic work: overlay maintenance, soft-state expiry, lookup
    /// retries, re-homing, join retry.
    fn tick(&mut self, env: &mut dyn DhtEnv<V>, events: &mut Vec<DhtEvent<V>>) {
        self.tick_count += 1;
        let now = env.now();
        self.overlay.tick(lend!(self, env, events), &self.cfg);
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
                if now.since(self.join_sent) > LOOKUP_RETRY {
                    self.join_via(env, b);
                }
            }
        }

        // Re-issue overdue lookups with exponential backoff: under
        // congestion a reply may sit minutes deep in an inbound queue,
        // and dropping the op would lose data. An op out of retries is
        // abandoned `LOOKUP_GIVE_UP` after it was sent, and an abandoned
        // get is answered empty. Each pass below is skipped when it has
        // nothing to look at.
        if !self.pending.is_empty() {
            let mut due = Vec::new();
            for (token, p) in self.pending.iter_mut().filter(|(_, p)| now > p.due) {
                due.push((token, p.key, p.retries_left > 0));
                if p.retries_left > 0 {
                    p.retries_left -= 1;
                    p.due = now + lookup_backoff(LOOKUP_RETRIES - p.retries_left);
                }
            }
            for (token, key, retry) in due {
                if retry {
                    // Resolves here if ownership shifted to us meanwhile.
                    self.send_lookup(env, key, token, events);
                } else if let Some(PendingOp {
                    op: Pending::Get { user_token, .. } | Pending::Shipped(user_token),
                    ..
                }) = self.pending.remove(token)
                {
                    let token = user_token;
                    events.push(DhtEvent::GetResult {
                        token,
                        items: Vec::new(),
                    });
                }
            }
        }

        // Drop old multicast dedup records.
        if !self.seen_mcast.is_empty() {
            let horizon = Dur::from_secs(120);
            self.seen_mcast.retain(|_, t| now.since(*t) < horizon);
        }

        // Re-home items we no longer own (every few ticks): the
        // self-healing that follows overlay churn.
        if self.cfg.maintenance
            && self.is_joined()
            && self.tick_count.is_multiple_of(4)
            && !self.store.is_empty()
        {
            let overlay = &self.overlay;
            for entry in self.store.extract_not_owned(|k| overlay.owns(k)) {
                let key = entry.key;
                self.lookup(env, key, Pending::Put(entry), events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RecordingEnv;

    /// The ops in flight at `dht`, as (retries left, what).
    fn in_flight(dht: &Dht<Vec<u8>>) -> Vec<(u32, Option<u64>)> {
        let shipped = |op: &Pending<Vec<u8>>| match op {
            Pending::Shipped(user_token) => Some(*user_token),
            _ => None,
        };
        dht.pending
            .iter()
            .map(|(_, p)| (p.retries_left, shipped(&p.op)))
            .collect()
    }

    /// Node 0 of 16 stabilized stacks, and a key of namespace 7 whose
    /// lookup node 0 forwards: (node 0, the key's rid, its owner).
    fn a_forwarded_key() -> (Dht<Vec<u8>>, Rid, NodeId) {
        let cfg = DhtConfig::static_network();
        let nodes: Vec<_> = Dht::<Vec<u8>>::stabilized(16, &cfg).collect();
        let forwarded = |rid: &Rid| {
            let step = nodes[0]
                .overlay
                .lookup_step::<Vec<u8>>(key_of(7, *rid), 1, 0);
            matches!(step, LookupStep::Forward(..))
        };
        let rid = (0..).find(forwarded).unwrap();
        let owner = nodes.iter().position(|n| n.owns_key(key_of(7, rid)));
        let owner = owner.expect("every key has an owner") as NodeId;
        (nodes.into_iter().next().unwrap(), rid, owner)
    }

    /// Run `dht`'s tick at `at`.
    fn tick_at(
        dht: &mut Dht<Vec<u8>>,
        env: &mut RecordingEnv<Vec<u8>>,
        at: Time,
        events: &mut Vec<DhtEvent<Vec<u8>>>,
    ) {
        env.now = at;
        dht.handle_timer(env, DHT_TICK_TOKEN, events);
    }

    /// `events` is exactly one empty answer to the caller's `token`.
    fn empty_answer(events: &[DhtEvent<Vec<u8>>], token: u64) -> bool {
        matches!(events, [DhtEvent::GetResult { token: t, items }] if *t == token && items.is_empty())
    }

    /// A `get` shipped to its owner stays in `pending` with no retries,
    /// which the tick never re-issues. One whose owner never answers is
    /// abandoned at the horizon a lookup is, and answered empty; a
    /// reply arriving after that raises nothing.
    #[test]
    fn a_get_its_owner_never_answers_is_forgotten_at_the_give_up_horizon() {
        let cfg = DhtConfig::static_network();
        let mut nodes: Vec<_> = Dht::<Vec<u8>>::stabilized(2, &cfg).collect();
        let owner = nodes.pop().expect("node 1");
        let mut dht = nodes.pop().expect("node 0");
        let (ns, mut env, events) = (7, RecordingEnv::new(0), &mut Vec::new());
        let rid = (0..).find(|&rid| owner.owns_key(key_of(ns, rid))).unwrap();
        dht.get(&mut env, ns, rid, 42, events);
        // Resolved at once or forwarded: either way the owner's answer to
        // the lookup ships the get.
        let first = dht.pending.iter().next().map(|(token, _)| token);
        if let Some(token) = first {
            let key = key_of(ns, rid);
            dht.handle_message(&mut env, 1, DhtMsg::LookupReply { token, key }, events);
        }
        let Some((1, DhtMsg::Get { token, .. })) = env.sent.last() else {
            panic!("the get went to its owner: {:?}", env.sent.last());
        };
        let token = *token;
        assert_eq!(in_flight(&dht), [(0, Some(42))], "shipped, no retries");

        let sent = env.now;
        tick_at(&mut dht, &mut env, sent + LOOKUP_GIVE_UP, events);
        assert_eq!(dht.pending.iter().count(), 1, "kept up to the horizon");
        assert!(events.is_empty());
        tick_at(&mut dht, &mut env, sent + LOOKUP_GIVE_UP + cfg.tick, events);
        assert!(dht.pending.is_empty(), "forgotten past it");
        assert!(empty_answer(events, 42), "answered empty: {events:?}");

        let items = Vec::new();
        dht.handle_message(&mut env, 1, DhtMsg::GetReply { token, items }, events);
        assert_eq!(events.len(), 1, "a late reply raises nothing");
    }

    /// A `get` whose lookup no node ever answers is re-issued until its
    /// retries run out — 13 lookups in all — and then answered once,
    /// empty, like a get that finds nothing.
    #[test]
    fn a_get_whose_lookup_is_never_answered_is_answered_empty() {
        let (mut dht, rid, _) = a_forwarded_key();
        let (mut env, events) = (RecordingEnv::new(0), &mut Vec::new());
        dht.get(&mut env, 7, rid, 42, events);
        let tick = dht.cfg.tick;
        while env.now < Time::ZERO + LOOKUP_GIVE_UP + LOOKUP_GIVE_UP {
            let next = env.now + tick;
            tick_at(&mut dht, &mut env, next, events);
        }
        // Maintenance is off: every routing-layer message sent is a lookup.
        let lookups = env.sent.iter();
        let lookups = lookups.filter(|(_, m)| matches!(m, DhtMsg::Can(_)));
        assert_eq!(lookups.count(), 13);
        assert!(empty_answer(events, 42), "answered once, empty: {events:?}");
        assert!(dht.pending.is_empty());
    }

    /// A lookup answered twice ships its get once, and the owner's
    /// answer to that get raises one result.
    #[test]
    fn a_second_lookup_reply_ships_nothing_more() {
        let (mut dht, rid, owner) = a_forwarded_key();
        let (mut env, events) = (RecordingEnv::new(0), &mut Vec::new());
        dht.get(&mut env, 7, rid, 42, events);
        let (token, _) = dht.pending.iter().next().expect("a lookup in flight");
        let key = key_of(7, rid);
        for _ in 0..2 {
            let reply = DhtMsg::LookupReply { token, key };
            dht.handle_message(&mut env, owner, reply, events);
        }
        let gets = env.sent.iter();
        let gets = gets.filter(|(to, m)| *to == owner && matches!(m, DhtMsg::Get { .. }));
        assert_eq!(gets.count(), 1);
        assert_eq!(in_flight(&dht), [(0, Some(42))]);

        let (iid, expires, val) = (3, Time::MAX, vec![1]);
        let found = Entry {
            ns: 7,
            rid,
            iid,
            key,
            expires,
            val,
        };
        let items = vec![found];
        dht.handle_message(&mut env, owner, DhtMsg::GetReply { token, items }, events);
        assert!(
            matches!(events.as_slice(), [DhtEvent::GetResult { token: 42, items }] if items.len() == 1),
            "{events:?}"
        );
        assert!(dht.pending.is_empty());
    }
}
