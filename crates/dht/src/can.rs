//! The Content Addressable Network overlay (§3.1.1).
//!
//! Each node owns one or more zones of a d-dimensional torus. Routing is
//! greedy: forward to the neighbor whose zone is closest to the target
//! point. Joins split the zone containing a random point; failures are
//! detected by missed keepalives and repaired by neighbor takeover, with
//! the stored soft state lost (to be restored by publisher renewals,
//! §5.6).
//!
//! Takeover election: heartbeats carry the sender's *neighbor map* in
//! addition to its zones, so when a node dies all of its neighbors share
//! a (recent, consistent) candidate set and deterministically elect the
//! same claimant — smallest (volume, id) — avoiding most claim races.
//! Residual races are healed by the relinquish rule in
//! `CanState::handle_takeover`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use pier_simnet::time::Time;
use pier_simnet::{NodeId, Wire};

use crate::env::Lend;
use crate::event::DhtEvent;
use crate::geom::{Point, Zone};
use crate::msg::{CanMsg, DhtMsg, Entry, NeighborMap, RepairScope, Zones};
use crate::overlay::{LookupStep, Routed, TreeSeat};
use crate::{DhtConfig, ROUTE_TTL};

/// What this node knows about one neighbor.
#[derive(Debug, Clone)]
pub struct NeighborInfo {
    /// The neighbor's own zone list, shared with it and with every
    /// other holder.
    pub zones: Zones,
    pub last_seen: Time,
    /// The neighbor's own neighbor map, from its last heartbeat. This is
    /// the shared candidate set for takeover election when it fails —
    /// shared in memory too: every neighbor holds the sender's one map.
    pub their_neighbors: NeighborMap,
}

impl NeighborInfo {
    pub fn new(zones: Zones, last_seen: Time) -> Self {
        NeighborInfo {
            zones,
            last_seen,
            their_neighbors: NeighborMap::default(),
        }
    }
}

/// The candidate whose zones come nearest to `p`, ties to the smaller
/// id: a node's greedy step, whether it is its own or read off the
/// neighbor map another node advertised.
fn nearest<'a>(
    of: impl Iterator<Item = (NodeId, &'a Zones)>,
    p: Point,
    d: usize,
) -> Option<NodeId> {
    of.map(|(id, zones)| {
        let dist = zones.iter().map(|z| z.dist2(p, d)).min();
        (dist.unwrap_or(u128::MAX), id)
    })
    .min()
    .map(|(_, id)| id)
}

/// Per-node CAN routing state.
#[derive(Debug, Clone)]
pub struct CanState {
    pub d: usize,
    pub me: NodeId,
    /// Zones currently owned (several after takeovers/absorbs). Every
    /// announcement and neighbor entry holds this one list.
    pub zones: Zones,
    pub neighbors: BTreeMap<NodeId, NeighborInfo>,
    pub joined: bool,
    last_heartbeat: Time,
    /// Takeovers we are waiting on someone else to perform. If the
    /// elected claimant was itself a casualty (mass failure), we fall
    /// back down the candidate list so no zone stays orphaned.
    pending_claims: BTreeMap<NodeId, PendingClaim>,
}

/// Where greedy routing sends a point from here.
enum Route {
    /// One of our zones contains it.
    Here,
    /// Forward to this neighbor, the one nearest to it.
    Via(NodeId),
    /// Not ours and no neighbors (a lone or not-yet-joined node).
    Stuck,
}

#[derive(Debug, Clone)]
struct PendingClaim {
    zones: Zones,
    /// Candidates ordered by (volume, id); index 0 was elected first.
    candidates: Vec<(u128, NodeId)>,
    attempt: usize,
    deadline: Time,
}

impl CanState {
    pub fn new(d: usize, me: NodeId) -> Self {
        assert!((1..=crate::geom::MAX_D).contains(&d));
        CanState {
            d,
            me,
            zones: Zones::default(),
            neighbors: BTreeMap::new(),
            joined: false,
            last_heartbeat: Time::ZERO,
            pending_claims: BTreeMap::new(),
        }
    }

    /// Become the first node of a new overlay: own the whole space.
    pub fn start_first(&mut self) {
        self.zones = [Zone::whole(self.d)].into();
        self.joined = true;
    }

    /// Ask `bootstrap` to locate a random point for us to join at.
    pub fn start_join<V: Wire>(&mut self, io: &mut Lend<'_, V>, bootstrap: NodeId) {
        let p = Point::from_key(io.env.rand64(), self.d);
        io.send(
            bootstrap,
            DhtMsg::Can(CanMsg::JoinLocate {
                joiner: self.me,
                p,
                ttl: ROUTE_TTL,
            }),
        );
    }

    pub fn owns_point(&self, p: Point) -> bool {
        self.zones.iter().any(|z| z.contains(p, self.d))
    }

    /// Do we own the point `key` hashes to in this overlay's `d`?
    pub fn owns_key(&self, key: u64) -> bool {
        self.owns_point(Point::from_key(key, self.d))
    }

    /// Greedy next hop: the neighbor whose zone is nearest to `p`
    /// (deterministic tie-break on node id).
    pub fn next_hop(&self, p: Point) -> Option<NodeId> {
        let neighbors = self.neighbors.iter().map(|(&id, info)| (id, &info.zones));
        nearest(neighbors, p, self.d)
    }

    /// This node's seat in the combine tree toward `key`'s owner: its
    /// parent is its next hop, its children the neighbors whose next hop,
    /// read off the map each advertised, is this node.
    pub fn tree_seat(&self, key: u64) -> TreeSeat {
        let p = Point::from_key(key, self.d);
        let parent = (!self.owns_point(p)).then(|| self.next_hop(p)).flatten();
        let child = |info: &NeighborInfo| {
            let theirs = info.their_neighbors.iter().map(|(id, zones)| (*id, zones));
            !info.zones.iter().any(|z| z.contains(p, self.d))
                && nearest(theirs, p, self.d) == Some(self.me)
        };
        let children = self.neighbors.iter().filter(|(_, info)| child(info));
        TreeSeat {
            parent,
            children: children.map(|(&id, _)| id).collect(),
            share: self.volume(),
            whole: Zone::whole(self.d).volume(self.d),
        }
    }

    /// The one routing decision every routed message takes: handle `p`
    /// here, hand it to the neighbor nearest to it, or hold it.
    fn route(&self, p: Point) -> Route {
        if self.owns_point(p) {
            Route::Here
        } else {
            self.next_hop(p).map_or(Route::Stuck, Route::Via)
        }
    }

    /// One provider lookup step (Table 1's `lookup`): resolved here, or
    /// the message to forward and to whom.
    pub fn lookup_step<V>(&self, key: u64, token: u64, origin: NodeId) -> LookupStep<V> {
        match self.route(Point::from_key(key, self.d)) {
            Route::Here => LookupStep::Owner(self.me),
            Route::Via(next) => LookupStep::Forward(
                next,
                DhtMsg::Can(CanMsg::Lookup {
                    key,
                    token,
                    origin,
                    ttl: ROUTE_TTL,
                }),
            ),
            // No neighbors: single-node overlay; retried on tick.
            Route::Stuck => LookupStep::Stuck,
        }
    }

    /// Total volume owned — the takeover tie-break metric (the smallest
    /// node absorbs the dead zone, which keeps the partition balanced).
    pub fn volume(&self) -> u128 {
        self.zones.iter().map(|z| z.volume(self.d)).sum()
    }

    /// Replica placement rule for CAN: up to `count` current neighbors,
    /// smallest node id first. Deterministic given the neighbor set, so
    /// the primary re-targets the same peers on every renewal and the
    /// replica set only drifts when the neighborhood itself changes
    /// (stale ex-replica copies then simply age out, §3.2.3).
    pub fn replica_peers(&self, count: usize) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.neighbors.keys().copied().collect();
        ids.sort_unstable();
        ids.truncate(count);
        ids
    }

    /// The peers asked for repair data: every neighbor — the union of
    /// all placement targets whose primaries could have replicated into
    /// the region we now own.
    pub fn repair_peers(&self) -> Vec<NodeId> {
        self.neighbors.keys().copied().collect()
    }

    /// Our current ownership region, as an anti-entropy repair scope.
    pub fn repair_scope(&self) -> RepairScope {
        RepairScope::Zones(self.zones.clone())
    }

    /// Does `key` fall inside a requester's `scope`? Judged in the
    /// dimensionality this node's zones actually have; a ring scope
    /// covers nothing here.
    pub fn covers(&self, scope: &RepairScope, key: u64) -> bool {
        let RepairScope::Zones(zones) = scope else {
            return false;
        };
        let p = Point::from_key(key, self.d);
        zones.iter().any(|z| z.contains(p, self.d))
    }

    /// Our neighbor table as a heartbeat advertises it.
    fn neighbor_map(&self) -> NeighborMap {
        self.neighbors
            .iter()
            .map(|(&id, info)| (id, info.zones.clone()))
            .collect()
    }

    fn adjacent_to_mine(&self, zones: &[Zone]) -> bool {
        zones
            .iter()
            .any(|z| self.zones.iter().any(|m| m.is_neighbor(z, self.d)))
    }

    /// Integrate a zone announcement from `from`; a heartbeat also
    /// carries the sender's neighbor map.
    fn integrate_announcement(
        &mut self,
        now: Time,
        from: NodeId,
        zones: Zones,
        their_neighbors: Option<NeighborMap>,
    ) {
        if from == self.me {
            return;
        }
        if self.adjacent_to_mine(&zones) {
            let entry = self
                .neighbors
                .entry(from)
                .or_insert_with(|| NeighborInfo::new(Zones::clone(&zones), now));
            entry.zones = zones;
            entry.last_seen = now;
            if let Some(tn) = their_neighbors {
                entry.their_neighbors = tn;
            }
        } else {
            self.neighbors.remove(&from);
        }
    }

    /// Dispatch one CAN message. Returns what is left for the provider:
    /// a multicast payload to deliver here, or nothing.
    pub fn handle<V: Wire + Clone>(
        &mut self,
        io: &mut Lend<'_, V>,
        from: NodeId,
        msg: CanMsg<V>,
    ) -> Routed<V> {
        match msg {
            CanMsg::JoinLocate { joiner, p, ttl } => match self.route(p) {
                Route::Here => self.handle_join_locate(io, joiner, p),
                Route::Via(next) if ttl > 0 => io.send(
                    next,
                    DhtMsg::Can(CanMsg::JoinLocate {
                        joiner,
                        p,
                        ttl: ttl - 1,
                    }),
                ),
                _ => {}
            },
            CanMsg::JoinOffer {
                zone,
                neighbors,
                items,
            } => self.handle_join_offer(io, zone, neighbors, items),
            CanMsg::NeighborUpdate { zones } => {
                self.integrate_announcement(io.env.now(), from, zones, None);
            }
            CanMsg::Heartbeat { zones, neighbors } => {
                self.integrate_announcement(io.env.now(), from, zones, Some(neighbors));
            }
            CanMsg::Takeover { dead, zones } => self.handle_takeover(io, from, dead, zones),
            CanMsg::Leave {
                zones,
                items,
                neighbors,
            } => self.handle_leave(io, from, zones, items, neighbors),
            CanMsg::Lookup {
                key,
                token,
                origin,
                ttl,
            } => match self.route(Point::from_key(key, self.d)) {
                Route::Here => io.send(origin, DhtMsg::LookupReply { token, key }),
                Route::Via(next) if ttl > 0 => io.send(
                    next,
                    DhtMsg::Can(CanMsg::Lookup {
                        key,
                        token,
                        origin,
                        ttl: ttl - 1,
                    }),
                ),
                _ => {}
            },
            CanMsg::Mcast {
                id,
                origin,
                rect,
                payload,
                ttl,
            } => return self.route_mcast(io, id, origin, rect, payload, ttl),
        }
        Routed::Nothing
    }

    /// Start a multicast: route the whole-space rectangle like any other
    /// fragment. The initiator rarely owns the center of the space, and
    /// its own delivery arrives when the flood reaches its zone.
    pub fn multicast<V: Wire + Clone>(
        &self,
        io: &mut Lend<'_, V>,
        id: u64,
        origin: NodeId,
        payload: V,
    ) -> Routed<V> {
        self.route_mcast(io, id, origin, Zone::whole(self.d), payload, ROUTE_TTL)
    }

    /// Route a multicast fragment toward its rectangle's center. The
    /// owner of the center delivers, then recurses into the parts of the
    /// rectangle its zone does not cover (directed flood).
    fn route_mcast<V: Wire + Clone>(
        &self,
        io: &mut Lend<'_, V>,
        id: u64,
        origin: NodeId,
        rect: Zone,
        payload: V,
        ttl: u16,
    ) -> Routed<V> {
        let d = self.d;
        let center = rect.center(d);
        match self.route(center) {
            Route::Here => {
                let zone = self.zones.iter().find(|z| z.contains(center, d));
                let covered = zone.and_then(|z| z.intersection(&rect, d));
                if let Some(covered) = covered.filter(|_| ttl > 0) {
                    for sub in rect.subtract(&covered, d) {
                        // A fragment that lands in another of our zones
                        // asks for a second delivery; one is enough.
                        self.route_mcast(io, id, origin, sub, payload.clone(), ttl - 1);
                    }
                }
                Routed::Deliver {
                    id,
                    origin,
                    payload,
                }
            }
            Route::Via(next) => {
                io.send(
                    next,
                    DhtMsg::Can(CanMsg::Mcast {
                        id,
                        origin,
                        rect,
                        payload,
                        ttl,
                    }),
                );
                Routed::Nothing
            }
            Route::Stuck => Routed::Nothing,
        }
    }

    /// A joiner's chosen point landed in our zone: split it and hand half
    /// (plus the items it covers) to the joiner.
    fn handle_join_locate<V: Wire + Clone>(
        &mut self,
        io: &mut Lend<'_, V>,
        joiner: NodeId,
        p: Point,
    ) {
        if joiner == self.me || !self.joined {
            return;
        }
        let Some(idx) = self.zones.iter().position(|z| z.contains(p, self.d)) else {
            return; // stale routing; the joiner will retry
        };
        let zone = self.zones[idx];
        let dim = zone.split_dim(self.d);
        if zone.hi(dim) - zone.lo(dim) < 2 {
            return; // cannot split further (never happens at sane scales)
        }
        let (a, b) = zone.split(dim);
        let (mine, theirs) = if a.contains(p, self.d) {
            (b, a)
        } else {
            (a, b)
        };
        let mut kept: Vec<Zone> = self.zones.to_vec();
        kept[idx] = mine;
        self.zones = kept.into();

        // Hand off stored items no longer covered by our zones.
        let d = self.d;
        let zones = &self.zones;
        let items = io.store.extract_not_owned(|key| {
            let pt = Point::from_key(key, d);
            zones.iter().any(|z| z.contains(pt, d))
        });

        // Candidate neighbor set for the joiner: us plus our neighbors.
        let mut candidates: Vec<(NodeId, Zones)> = vec![(self.me, self.zones.clone())];
        candidates.extend(
            self.neighbors
                .iter()
                .map(|(&id, info)| (id, info.zones.clone())),
        );
        io.send(
            joiner,
            DhtMsg::Can(CanMsg::JoinOffer {
                zone: theirs,
                neighbors: candidates,
                items,
            }),
        );

        // Announce our shrunken zone to everyone who knew the old one —
        // *before* pruning, so ex-neighbors drop us instead of holding a
        // stale entry that would later trigger a bogus takeover.
        let now = io.env.now();
        self.neighbors
            .insert(joiner, NeighborInfo::new([theirs].into(), now));
        self.announce(io);
        let my_zones = &self.zones;
        self.neighbors.retain(|_, info| {
            info.zones
                .iter()
                .any(|z| my_zones.iter().any(|m| m.is_neighbor(z, d)))
        });
        io.events.push(DhtEvent::LocationMapChanged);
    }

    /// We received our zone assignment: install it and introduce
    /// ourselves to the neighborhood.
    fn handle_join_offer<V: Wire + Clone>(
        &mut self,
        io: &mut Lend<'_, V>,
        zone: Zone,
        candidates: Vec<(NodeId, Zones)>,
        items: Vec<Entry<V>>,
    ) {
        if self.joined {
            return; // duplicate offer from a retried join
        }
        self.zones = [zone].into();
        self.joined = true;
        let now = io.env.now();
        for (id, zones) in candidates {
            if id != self.me && self.adjacent_to_mine(&zones) {
                self.neighbors.insert(id, NeighborInfo::new(zones, now));
            }
        }
        for e in items {
            // Transferred items are not "new data": they were already
            // announced at the previous owner.
            io.store.store(e);
        }
        self.announce(io);
        io.events.push(DhtEvent::Joined);
        io.events.push(DhtEvent::LocationMapChanged);
    }

    /// Broadcast our current zone list to every neighbor.
    fn announce<V: Wire>(&self, io: &mut Lend<'_, V>) {
        for &id in self.neighbors.keys() {
            io.send(
                id,
                DhtMsg::Can(CanMsg::NeighborUpdate {
                    zones: self.zones.clone(),
                }),
            );
        }
    }

    /// Another node claims a dead node's zones. Claim race backstop: if
    /// we also absorbed any of these zones and the other claimant has the
    /// smaller id, we relinquish ours.
    fn handle_takeover<V>(
        &mut self,
        io: &mut Lend<'_, V>,
        from: NodeId,
        dead: NodeId,
        zones: Zones,
    ) {
        self.neighbors.remove(&dead);
        self.pending_claims.remove(&dead);
        if from != self.me && from < self.me {
            // Relinquish the *contested region* to the smaller id. Zone
            // shapes diverge after merges, so subtract intersections
            // rather than comparing boxes for equality.
            let mut changed = false;
            let mut kept: Vec<Zone> = Vec::with_capacity(self.zones.len());
            for &z in self.zones.iter() {
                let mut parts = vec![z];
                for claimed in zones.iter() {
                    let mut next = Vec::with_capacity(parts.len());
                    for part in parts {
                        match part.intersection(claimed, self.d) {
                            Some(overlap) => {
                                changed = true;
                                next.extend(part.subtract(&overlap, self.d));
                            }
                            None => next.push(part),
                        }
                    }
                    parts = next;
                }
                kept.extend(parts);
            }
            // Unchanged, `kept` is our list as it was: keep the shared one.
            if changed {
                self.zones = kept.into();
                io.events.push(DhtEvent::LocationMapChanged);
            }
        }
        self.integrate_announcement(io.env.now(), from, zones, None);
    }

    /// Graceful departure (Table 1 `leave()`): hand zones and items to
    /// the best neighbor (merge-compatible if possible, else smallest).
    pub fn leave<V: Wire>(&mut self, io: &mut Lend<'_, V>) {
        let Some(target) = self.pick_leave_target() else {
            return; // no neighbor to hand over to
        };
        let items: Vec<Entry<V>> = io.store.extract_not_owned(|_| false);
        let neighbor_ids: Vec<NodeId> = self.neighbors.keys().copied().collect();
        io.send(
            target,
            DhtMsg::Can(CanMsg::Leave {
                zones: std::mem::take(&mut self.zones),
                items,
                neighbors: neighbor_ids.clone(),
            }),
        );
        // Tell everyone else we are gone (an empty-zones takeover makes
        // them drop us immediately instead of waiting out the keepalive).
        let none = Zones::default();
        for id in neighbor_ids {
            if id != target {
                io.send(
                    id,
                    DhtMsg::Can(CanMsg::Takeover {
                        dead: self.me,
                        zones: none.clone(),
                    }),
                );
            }
        }
        self.joined = false;
        self.neighbors.clear();
    }

    fn pick_leave_target(&self) -> Option<NodeId> {
        // Prefer a neighbor with a zone that merges cleanly with one of
        // ours; otherwise the smallest-volume neighbor.
        if self.zones.len() == 1 {
            for (&id, info) in &self.neighbors {
                if info
                    .zones
                    .iter()
                    .any(|z| z.try_merge(&self.zones[0], self.d).is_some())
                {
                    return Some(id);
                }
            }
        }
        self.neighbors
            .iter()
            .map(|(&id, info)| {
                let v: u128 = info.zones.iter().map(|z| z.volume(self.d)).sum();
                (v, id)
            })
            .min()
            .map(|(_, id)| id)
    }

    /// Absorb a leaving neighbor's zones and items.
    fn handle_leave<V: Wire>(
        &mut self,
        io: &mut Lend<'_, V>,
        from: NodeId,
        zones: Zones,
        items: Vec<Entry<V>>,
        leaver_neighbors: Vec<NodeId>,
    ) {
        self.neighbors.remove(&from);
        self.absorb_zones(&zones);
        for e in items {
            io.store.store(e);
        }
        // Announce to our neighborhood *and* the leaver's, so nodes on
        // the far side of the absorbed zone learn the new owner at once.
        let mut audience: Vec<NodeId> = self.neighbors.keys().copied().collect();
        for id in leaver_neighbors {
            if id != self.me && id != from && !audience.contains(&id) {
                audience.push(id);
            }
        }
        for id in audience {
            io.send(
                id,
                DhtMsg::Can(CanMsg::NeighborUpdate {
                    zones: self.zones.clone(),
                }),
            );
        }
        io.events.push(DhtEvent::LocationMapChanged);
    }

    fn absorb_zones(&mut self, zones: &[Zone]) {
        let mut mine: Vec<Zone> = self.zones.to_vec();
        for z in zones {
            // Merge with an existing zone when the union is a box.
            if let Some(i) = mine.iter().position(|m| m.try_merge(z, self.d).is_some()) {
                mine[i] = mine[i].try_merge(z, self.d).unwrap();
            } else {
                mine.push(*z);
            }
        }
        self.zones = mine.into();
    }

    /// Periodic maintenance: keepalives out, failure detection + takeover
    /// election in.
    pub fn tick<V: Wire>(&mut self, io: &mut Lend<'_, V>, cfg: &DhtConfig) {
        if !self.joined || !cfg.maintenance {
            return;
        }
        let now = io.env.now();
        if now.since(self.last_heartbeat) >= cfg.keepalive {
            self.last_heartbeat = now;
            let neighbor_map = self.neighbor_map();
            for &id in self.neighbors.keys() {
                io.send(
                    id,
                    DhtMsg::Can(CanMsg::Heartbeat {
                        zones: self.zones.clone(),
                        neighbors: neighbor_map.clone(),
                    }),
                );
            }
        }
        // Failure detection (the paper assumes 15 s, §5.6).
        let dead: Vec<NodeId> = self
            .neighbors
            .iter()
            .filter(|(_, info)| now.since(info.last_seen) > cfg.fail_after)
            .map(|(&id, _)| id)
            .collect();
        for dead_id in dead {
            let dead_info = self.neighbors.remove(&dead_id).expect("collected above");
            // Elect the claimant over the *dead node's* neighbor set (its
            // last advertised map), which every surviving neighbor shares.
            let mut candidates: Vec<(u128, NodeId)> = vec![(self.volume(), self.me)];
            for (id, zones) in dead_info.their_neighbors.iter() {
                if *id == dead_id || *id == self.me {
                    continue;
                }
                let v: u128 = zones.iter().map(|z| z.volume(self.d)).sum();
                candidates.push((v, *id));
            }
            candidates.sort_unstable();
            candidates.dedup_by_key(|&mut (_, id)| id);
            let dead_audience: Vec<NodeId> = dead_info
                .their_neighbors
                .iter()
                .map(|(id, _)| *id)
                .collect();
            if candidates[0].1 == self.me {
                self.claim(io, dead_id, dead_info.zones, &dead_audience);
            } else {
                // Someone else should claim; if they were a casualty too,
                // fall back down the list on a timer.
                self.pending_claims.insert(
                    dead_id,
                    PendingClaim {
                        zones: dead_info.zones,
                        candidates,
                        attempt: 0,
                        deadline: now + cfg.keepalive + cfg.keepalive,
                    },
                );
            }
        }
        // Fallback: elected claimants that never announced.
        let expired: Vec<NodeId> = self
            .pending_claims
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for dead_id in expired {
            let mut p = self.pending_claims.remove(&dead_id).unwrap();
            p.attempt += 1;
            match p.candidates.get(p.attempt).copied() {
                Some((_, id)) if id == self.me => {
                    let audience: Vec<NodeId> = p.candidates.iter().map(|&(_, id)| id).collect();
                    self.claim(io, dead_id, p.zones, &audience);
                }
                Some(_) => {
                    p.deadline = now + cfg.keepalive + cfg.keepalive;
                    self.pending_claims.insert(dead_id, p);
                }
                // List exhausted: claim it ourselves as a last resort.
                None => {
                    let audience: Vec<NodeId> = p.candidates.iter().map(|&(_, id)| id).collect();
                    self.claim(io, dead_id, p.zones, &audience);
                }
            }
        }
    }

    /// Absorb a dead node's zones and announce the takeover to everyone
    /// who might care (our neighbors plus the dead node's).
    fn claim<V: Wire>(
        &mut self,
        io: &mut Lend<'_, V>,
        dead_id: NodeId,
        zones: Zones,
        extra_audience: &[NodeId],
    ) {
        self.absorb_zones(&zones);
        io.events.push(DhtEvent::LocationMapChanged);
        let mut audience: Vec<NodeId> = self.neighbors.keys().copied().collect();
        for &id in extra_audience {
            if id != self.me && id != dead_id && !audience.contains(&id) {
                audience.push(id);
            }
        }
        for id in audience {
            io.send(
                id,
                DhtMsg::Can(CanMsg::Takeover {
                    dead: dead_id,
                    zones: self.zones.clone(),
                }),
            );
        }
    }
}

/// Recursively bisect the space into `n` balanced zones.
pub fn balanced_zones(n: usize, d: usize) -> Vec<Zone> {
    bisect(n, d).0
}

/// One cell of the tree [`bisect`] records: a zone of the partition, or
/// a box split in two by `Zone::split` on its `split_dim`, whose halves
/// are cells `lower` and `lower + 1`. The root, cell 0, is the whole
/// space; a cell's box is found by splitting down from it.
#[derive(Clone, Copy)]
enum Cell {
    Zone(usize),
    Split { lower: usize },
}

/// The balanced partition and the tree of splits that made it. The
/// largest zone is split next, the lowest index on ties; its lower half
/// keeps the index and the upper half takes the next one.
fn bisect(n: usize, d: usize) -> (Vec<Zone>, Vec<Cell>) {
    assert!(n >= 1);
    let mut zones = vec![Zone::whole(d)];
    let mut cells = vec![Cell::Zone(0)];
    // The cell each zone is, and the zones by (volume, lowest index).
    let mut cell_of = vec![0];
    let mut largest = BinaryHeap::from([(zones[0].volume(d), Reverse(0))]);
    while zones.len() < n {
        let (_, Reverse(idx)) = largest.pop().expect("a zone to split");
        let z = zones[idx];
        let (a, b) = z.split(z.split_dim(d));
        let (up, lower) = (zones.len(), cells.len());
        zones[idx] = a;
        zones.push(b);
        cells[cell_of[idx]] = Cell::Split { lower };
        cells.extend([Cell::Zone(idx), Cell::Zone(up)]);
        cell_of[idx] = lower;
        cell_of.push(lower + 1);
        largest.extend([(a.volume(d), Reverse(idx)), (b.volume(d), Reverse(up))]);
    }
    (zones, cells)
}

/// Build a stabilized n-node overlay directly: node i owns zone i, with
/// neighbor tables precomputed. Used by large-scale experiments, since
/// "all measurements are performed after the CAN routing stabilizes"
/// (§5.2). The incremental join path is exercised by tests and the churn
/// experiment.
///
/// A node's neighbors are found by descending the bisection tree as a
/// k-d tree (Bentley, CACM 1975): a box that does not
/// [`Zone::reaches`] the node's zone holds none of them, and
/// `Zone::is_neighbor` decides at each zone reached.
///
/// Each node's zone list is built once: the node and every neighbor
/// that names it hold that one [`Zones`].
pub fn balanced_overlay(n: usize, d: usize, now: Time) -> Vec<CanState> {
    let (zones, cells) = bisect(n, d);
    let lists: Vec<Zones> = zones.iter().map(|&z| Zones::from([z])).collect();
    let mut stack = Vec::new();
    let mut states: Vec<CanState> = zones
        .iter()
        .enumerate()
        .map(|(i, &zone)| {
            let mut s = CanState::new(d, i as NodeId);
            s.zones = lists[i].clone();
            s.joined = true;
            stack.push((0, Zone::whole(d)));
            while let Some((cell, bx)) = stack.pop() {
                match cells[cell] {
                    Cell::Zone(j) => {
                        if j != i && zone.is_neighbor(&zones[j], d) {
                            s.neighbors
                                .insert(j as NodeId, NeighborInfo::new(lists[j].clone(), now));
                        }
                    }
                    Cell::Split { lower } => {
                        let (a, b) = bx.split(bx.split_dim(d));
                        for (half, hx) in [(lower, a), (lower + 1, b)] {
                            if hx.reaches(&zone, d) {
                                stack.push((half, hx));
                            }
                        }
                    }
                }
            }
            s
        })
        .collect();
    // Populate second-hop maps so takeover election works from t=0.
    let maps: Vec<NeighborMap> = states.iter().map(CanState::neighbor_map).collect();
    for s in &mut states {
        for (id, info) in s.neighbors.iter_mut() {
            info.their_neighbors = maps[*id as usize].clone();
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RecordingEnv;
    use crate::geom::SPACE;
    use crate::storage::StorageManager;
    use crate::traffic::TrafficMeter;
    use pier_simnet::time::Dur;

    type V = Vec<u8>;

    /// Everything a handler under test borrows, owned in one place.
    struct Rig {
        env: RecordingEnv<V>,
        meter: TrafficMeter,
        store: StorageManager<V>,
        events: Vec<DhtEvent<V>>,
    }

    impl Rig {
        fn new(me: NodeId) -> Self {
            Rig {
                env: RecordingEnv::new(me),
                meter: TrafficMeter::default(),
                store: StorageManager::new(),
                events: Vec::new(),
            }
        }

        fn io(&mut self) -> Lend<'_, V> {
            Lend {
                env: &mut self.env,
                meter: &mut self.meter,
                store: &mut self.store,
                events: &mut self.events,
            }
        }
    }

    #[test]
    fn first_node_owns_everything() {
        let mut c = CanState::new(4, 0);
        c.start_first();
        for k in 0..100 {
            assert!(c.owns_point(Point::from_key(k, 4)));
        }
    }

    #[test]
    fn join_locate_splits_and_offers_half() {
        let mut owner = CanState::new(2, 0);
        owner.start_first();
        let mut rig = Rig::new(0);
        // Seed items on both sides of the future split (dim 0 halves).
        for k in 0..200u64 {
            let key = crate::geom::splitmix64(k);
            rig.store.store(Entry {
                ns: 1,
                rid: k,
                iid: 0,
                key,
                expires: Time(u64::MAX),
                val: vec![],
            });
        }
        let total = rig.store.len();
        let p = Point::from_key(12345, 2);
        owner.handle_join_locate(&mut rig.io(), 7, p);

        assert_eq!(owner.zones.len(), 1);
        assert!(!owner.owns_point(p), "point side went to the joiner");
        assert!(owner.neighbors.contains_key(&7));
        // The offer carries the complementary half and the items in it.
        let offer = rig
            .env
            .sent
            .iter()
            .find_map(|(to, m)| match m {
                DhtMsg::Can(CanMsg::JoinOffer { zone, items, .. }) if *to == 7 => {
                    Some((*zone, items.len()))
                }
                _ => None,
            })
            .expect("join offer sent");
        assert!(offer.0.contains(p, 2));
        assert_eq!(offer.1 + rig.store.len(), total);
        assert!(offer.1 > 0, "some items moved");
        // Remaining items are all inside the kept zone.
        assert!(rig
            .store
            .iter_all()
            .all(|e| owner.owns_point(Point::from_key(e.key, 2))));
    }

    #[test]
    fn join_offer_installs_zone_and_introduces() {
        let mut joiner = CanState::new(2, 7);
        let mut rig = Rig::new(7);
        let whole = Zone::whole(2);
        let (a, b) = whole.split(0);
        joiner.handle_join_offer(
            &mut rig.io(),
            b,
            vec![(0, vec![a].into())],
            vec![Entry {
                ns: 1,
                rid: 9,
                iid: 0,
                key: 3,
                expires: Time(u64::MAX),
                val: vec![1, 2],
            }],
        );
        assert!(joiner.joined);
        assert_eq!(joiner.zones[..], [b]);
        assert!(joiner.neighbors.contains_key(&0));
        assert_eq!(rig.store.len(), 1);
        assert!(rig.events.iter().any(|e| matches!(e, DhtEvent::Joined)));
        assert!(rig
            .env
            .sent
            .iter()
            .any(|(to, m)| *to == 0 && matches!(m, DhtMsg::Can(CanMsg::NeighborUpdate { .. }))));
    }

    #[test]
    fn neighbor_update_prunes_non_adjacent() {
        let mut c = CanState::new(2, 0);
        c.start_first();
        let (a, b) = Zone::whole(2).split(0);
        c.zones = vec![a].into();
        c.integrate_announcement(Time(1), 5, vec![b].into(), None);
        assert!(c.neighbors.contains_key(&5));
        // A faraway sliver not adjacent to us: neighbor dropped.
        let mut far = b;
        far.set(0, b.lo(0) + SPACE / 8, b.lo(0) + SPACE / 4);
        far.set(1, 0, SPACE / 4);
        c.integrate_announcement(Time(2), 5, vec![far].into(), None);
        assert!(!c.neighbors.contains_key(&5));
    }

    #[test]
    fn split_announces_to_soon_to_be_ex_neighbors() {
        // Node 0 owns the left half; node 5 owns the right half; node 0
        // splits its zone for joiner 7. Whatever 5's adjacency ends up
        // being, it must receive a NeighborUpdate reflecting the split.
        let whole = Zone::whole(2);
        let (left, right) = whole.split(0);
        let mut c = CanState::new(2, 0);
        c.zones = vec![left].into();
        c.joined = true;
        c.neighbors
            .insert(5, NeighborInfo::new(vec![right].into(), Time(0)));
        let mut rig = Rig::new(0);
        // Pick a point in the left half to force a split of our zone.
        let mut p = Point { c: [0; 8] };
        p.c[0] = 1;
        p.c[1] = 1;
        c.handle_join_locate(&mut rig.io(), 7, p);
        let updated: Vec<NodeId> = rig
            .env
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                DhtMsg::Can(CanMsg::NeighborUpdate { .. }) => Some(*to),
                _ => None,
            })
            .collect();
        assert!(updated.contains(&5), "old neighbor notified: {updated:?}");
    }

    #[test]
    fn tick_detects_failure_and_takes_over() {
        let cfg = DhtConfig::default();
        let (a, b) = Zone::whole(2).split(0);
        let mut c = CanState::new(2, 0);
        c.zones = vec![a].into();
        c.joined = true;
        let mut info = NeighborInfo::new(vec![b].into(), Time::ZERO);
        info.their_neighbors = vec![(0, vec![a].into())].into();
        c.neighbors.insert(1, info);
        let mut rig = Rig::new(0);
        rig.env.now = Time::ZERO + cfg.fail_after + Dur::from_secs(1);
        c.tick(&mut rig.io(), &cfg);
        assert!(!c.neighbors.contains_key(&1));
        // We absorbed the dead zone; zones merged back to the whole space.
        assert_eq!(c.zones[..], [Zone::whole(2)]);
        assert!(rig
            .events
            .iter()
            .any(|e| matches!(e, DhtEvent::LocationMapChanged)));
        assert!(rig.meter.maintenance > 0);
    }

    #[test]
    fn takeover_election_is_consistent_across_observers() {
        // Several nodes around a dead one; all share the dead node's
        // advertised neighbor map, so exactly one should claim.
        let d = 2;
        let zones = balanced_zones(4, d);
        let dead_id: NodeId = 3;
        let dead_zone = zones[3];
        let shared_map: NeighborMap = (0..3u32)
            .filter(|&i| dead_zone.is_neighbor(&zones[i as usize], d))
            .map(|i| (i, vec![zones[i as usize]].into()))
            .collect();
        assert!(shared_map.len() >= 2, "need at least two candidates");
        let cfg = DhtConfig::default();
        let mut claims = 0;
        for me in 0..3u32 {
            if !dead_zone.is_neighbor(&zones[me as usize], d) {
                continue;
            }
            let mut c = CanState::new(d, me);
            c.zones = vec![zones[me as usize]].into();
            c.joined = true;
            let mut info = NeighborInfo::new(vec![dead_zone].into(), Time::ZERO);
            info.their_neighbors = shared_map.clone();
            c.neighbors.insert(dead_id, info);
            let mut rig = Rig::new(me);
            rig.env.now = Time::ZERO + cfg.fail_after + Dur::from_secs(1);
            c.tick(&mut rig.io(), &cfg);
            if c.zones.len() > 1 || c.zones[0] != zones[me as usize] {
                claims += 1;
            }
        }
        assert_eq!(claims, 1, "exactly one claimant");
    }

    #[test]
    fn heartbeats_sent_once_per_period() {
        let cfg = DhtConfig::default();
        let (a, b) = Zone::whole(2).split(0);
        let mut c = CanState::new(2, 0);
        c.zones = vec![a].into();
        c.joined = true;
        c.neighbors
            .insert(1, NeighborInfo::new(vec![b].into(), Time::ZERO));
        let mut rig = Rig::new(0);
        rig.env.now = Time::ZERO + cfg.keepalive + Dur::from_millis(1);
        c.neighbors.get_mut(&1).unwrap().last_seen = rig.env.now;
        c.tick(&mut rig.io(), &cfg);
        let hb1 = rig.env.sent.len();
        assert!(hb1 >= 1);
        // Immediately ticking again sends nothing new.
        c.tick(&mut rig.io(), &cfg);
        assert_eq!(rig.env.sent.len(), hb1);
    }

    #[test]
    fn balanced_zones_partition_exactly() {
        for n in [1usize, 2, 3, 7, 16, 33] {
            let zones = balanced_zones(n, 4);
            assert_eq!(zones.len(), n);
            let vol: u128 = zones.iter().map(|z| z.volume(4)).sum();
            assert_eq!(vol, Zone::whole(4).volume(4));
            for k in 0..200u64 {
                let p = Point::from_key(k * 77, 4);
                assert_eq!(zones.iter().filter(|z| z.contains(p, 4)).count(), 1);
            }
        }
    }

    #[test]
    fn balanced_overlay_routes_greedily_to_owner() {
        let n = 64;
        let states = balanced_overlay(n, 4, Time::ZERO);
        for key in 0..300u64 {
            let p = Point::from_key(key, 4);
            // Greedy walk from node 0 must reach the owner.
            let mut cur = 0usize;
            let mut hops = 0;
            loop {
                if states[cur].owns_point(p) {
                    break;
                }
                let nxt = states[cur].next_hop(p).expect("has neighbors");
                assert_ne!(nxt as usize, cur);
                cur = nxt as usize;
                hops += 1;
                assert!(hops < 64, "routing loop for key {key}");
            }
            // Owner is unique.
            assert_eq!(
                states.iter().filter(|s| s.owns_point(p)).count(),
                1,
                "key {key}"
            );
        }
    }

    #[test]
    fn balanced_overlay_average_path_scales_as_fourth_root() {
        // d=4: expected average path ~ N^(1/4) hops (§3.1.1).
        let mut avgs = Vec::new();
        for n in [16usize, 256] {
            let states = balanced_overlay(n, 4, Time::ZERO);
            let mut total = 0u64;
            let mut cnt = 0u64;
            for key in 0..200u64 {
                let p = Point::from_key(key.wrapping_mul(0x9E37), 4);
                let mut cur = (key as usize * 7) % n;
                let mut hops = 0u64;
                while !states[cur].owns_point(p) {
                    cur = states[cur].next_hop(p).unwrap() as usize;
                    hops += 1;
                    assert!(hops < 1000);
                }
                total += hops;
                cnt += 1;
            }
            avgs.push(total as f64 / cnt as f64);
        }
        // 256^(1/4)/16^(1/4) = 2: the larger net should need roughly
        // double the hops (loose bounds: 1.4–3×).
        let ratio = avgs[1] / avgs[0].max(0.1);
        assert!(ratio > 1.2 && ratio < 3.5, "ratio {ratio}, avgs {avgs:?}");
    }
}
