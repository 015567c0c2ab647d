//! The Chord overlay (Stoica et al., SIGCOMM 2001).
//!
//! The paper validates PIER's DHT-agnostic design by also deploying over
//! Chord, "which required a fairly minimal integration effort" (§3.2). We
//! reproduce that: Chord plugs in behind the same routing-layer seam as
//! CAN ([`crate::overlay::Overlay`]). 64-bit ring, finger tables,
//! successor lists, periodic stabilization, and a finger-tree broadcast
//! standing in for CAN's directed-flood multicast.

use pier_simnet::time::Time;
use pier_simnet::{NodeId, Wire};

use crate::env::Lend;
use crate::event::DhtEvent;
use crate::geom::splitmix64;
use crate::msg::{ChordMsg, DhtMsg, FindPurpose, RepairScope};
use crate::overlay::{LookupStep, Routed, TreeSeat};
use crate::{DhtConfig, ROUTE_TTL};

/// Number of finger-table entries (64-bit ring).
pub const FINGERS: usize = 64;
/// Successor-list length for failure resilience.
pub const SUCC_LIST: usize = 4;

/// Ring position of a node id.
pub fn ring_of_node(me: NodeId) -> u64 {
    splitmix64((me as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ 0x9E37_79B9)
}

/// Ring position of a DHT key.
pub fn ring_of_key(key: u64) -> u64 {
    splitmix64(key ^ 0x1234_5678_9ABC_DEF0)
}

/// `x ∈ (a, b]` on the ring; when `a == b` the interval is the whole ring.
#[inline]
pub fn in_open_closed(a: u64, x: u64, b: u64) -> bool {
    if a == b {
        true
    } else if a < b {
        a < x && x <= b
    } else {
        x > a || x <= b
    }
}

/// `x ∈ (a, b)` on the ring.
#[inline]
pub fn in_open(a: u64, x: u64, b: u64) -> bool {
    if a == b {
        x != a
    } else if a < b {
        a < x && x < b
    } else {
        x > a || x < b
    }
}

/// Per-node Chord state.
#[derive(Debug, Clone)]
pub struct ChordState {
    pub me: NodeId,
    pub ring: u64,
    pub joined: bool,
    pub predecessor: Option<(u64, NodeId)>,
    pub successors: Vec<(u64, NodeId)>,
    pub fingers: Vec<Option<(u64, NodeId)>>,
    next_finger: usize,
    succ_last_seen: Time,
    pred_last_seen: Time,
}

impl ChordState {
    pub fn new(me: NodeId) -> Self {
        ChordState {
            me,
            ring: ring_of_node(me),
            joined: false,
            predecessor: None,
            successors: Vec::new(),
            fingers: vec![None; FINGERS],
            next_finger: 0,
            succ_last_seen: Time::ZERO,
            pred_last_seen: Time::ZERO,
        }
    }

    /// First node of a new ring.
    pub fn start_first(&mut self) {
        self.joined = true;
    }

    /// Ask `bootstrap` to find our successor.
    pub fn start_join<V: Wire>(&mut self, io: &mut Lend<'_, V>, bootstrap: NodeId) {
        io.send(
            bootstrap,
            DhtMsg::Chord(ChordMsg::FindSucc {
                target: self.ring,
                token: 0,
                origin: self.me,
                purpose: FindPurpose::Join,
                ttl: ROUTE_TTL,
            }),
        );
    }

    pub fn successor(&self) -> Option<(u64, NodeId)> {
        self.successors.first().copied()
    }

    /// Do we own ring position `pos`? True iff `pos ∈ (pred, me]`; with no
    /// predecessor recorded, a joined node conservatively claims the key
    /// (correct for the single-node ring; transient during stabilization).
    pub fn owns_pos(&self, pos: u64) -> bool {
        if !self.joined {
            return false;
        }
        match self.predecessor {
            None => true,
            Some((pring, _)) => in_open_closed(pring, pos, self.ring),
        }
    }

    /// Do we own the ring position `key` hashes to?
    pub fn owns_key(&self, key: u64) -> bool {
        self.owns_pos(ring_of_key(key))
    }

    /// Replica placement rule for Chord: the first `count` distinct
    /// entries of the successor list, the classic "store at the k-1
    /// successors" scheme — exactly the nodes whose ownership range will
    /// absorb ours if we fail, so a takeover finds the data already on
    /// the new owner (or one hop away).
    pub fn replica_peers(&self, count: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &(_, id) in &self.successors {
            if id != self.me && !out.contains(&id) {
                out.push(id);
                if out.len() == count {
                    break;
                }
            }
        }
        out
    }

    /// The peers asked for repair data: the successor list plus the
    /// predecessor — the union of all placement targets whose primaries
    /// could have replicated into the range we now own.
    pub fn repair_peers(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.successors.iter().map(|&(_, id)| id).collect();
        if let Some((_, p)) = self.predecessor {
            ids.push(p);
        }
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&id| id != self.me);
        ids
    }

    /// The ring interval `(from, to]` this node currently owns, as an
    /// anti-entropy repair scope (a predecessor failure widens it).
    pub fn repair_scope(&self) -> RepairScope {
        // No predecessor: a joined node claims the whole ring
        // (`in_open_closed` treats `from == to` as everything).
        let from = self.predecessor.map_or(self.ring, |(pring, _)| pring);
        RepairScope::Ring {
            from,
            to: self.ring,
        }
    }

    /// Does `key` fall inside a requester's `scope`? A zone scope covers
    /// nothing on a ring.
    pub fn covers(&self, scope: &RepairScope, key: u64) -> bool {
        matches!(scope, RepairScope::Ring { from, to }
            if in_open_closed(*from, ring_of_key(key), *to))
    }

    /// Closest node strictly preceding `pos` among fingers + successors.
    pub fn closest_preceding(&self, pos: u64) -> Option<NodeId> {
        let mut best: Option<(u64, NodeId)> = None;
        let consider = self.fingers.iter().flatten().chain(self.successors.iter());
        for &(r, id) in consider {
            if id == self.me || !in_open(self.ring, r, pos) {
                continue;
            }
            // The best candidate is the one whose ring id is closest to
            // (but before) pos — i.e. maximal in (self.ring, pos).
            best = Some(match best {
                None => (r, id),
                Some((br, bid)) => {
                    if in_open(br, r, pos) {
                        (r, id)
                    } else {
                        (br, bid)
                    }
                }
            });
        }
        best.map(|(_, id)| id)
    }

    /// One routing decision for a FindSucc toward `target`:
    /// `Ok(owner)` if resolved here, `Err(next)` to forward.
    pub fn find_succ_step(&self, target: u64) -> Result<(u64, NodeId), NodeId> {
        if self.owns_pos(target) {
            return Ok((self.ring, self.me));
        }
        if let Some((sring, sid)) = self.successor() {
            if in_open_closed(self.ring, target, sring) {
                return Ok((sring, sid));
            }
        }
        match self.closest_preceding(target) {
            Some(next) => Err(next),
            // Nowhere better to go: hand to successor if any.
            None => match self.successor() {
                Some((_, sid)) if sid != self.me => Err(sid),
                _ => Ok((self.ring, self.me)),
            },
        }
    }

    /// This node's seat in the combine tree toward `key`'s owner: the
    /// parent is the next lookup step. A node cannot name the nodes
    /// whose step it is, so it names no children. Its share is the arc
    /// `(predecessor, me]` it owns. A node with a successor but no known
    /// predecessor (one timed out, or none has notified yet) claims every
    /// key ([`Self::owns_pos`]), so it claims neither the root nor a
    /// share: it hands what it holds to its successor.
    pub fn tree_seat(&self, key: u64) -> TreeSeat {
        let (Ok((_, next)) | Err(next)) = self.find_succ_step(ring_of_key(key));
        let (next, share) = match (self.predecessor, self.successor()) {
            (None, Some((_, succ))) if succ != self.me => (succ, 0),
            (Some((p, _)), _) if p != self.ring => (next, self.ring.wrapping_sub(p).into()),
            _ => (next, 1 << 64),
        };
        TreeSeat {
            parent: (next != self.me).then_some(next),
            children: Vec::new(),
            share,
            whole: 1 << 64,
        }
    }

    /// One provider lookup step (Table 1's `lookup`): the owner if it is
    /// known here, else the message to forward and to whom.
    pub fn lookup_step<V>(&self, key: u64, token: u64, origin: NodeId) -> LookupStep<V> {
        let target = ring_of_key(key);
        match self.find_succ_step(target) {
            Ok((_, owner)) => LookupStep::Owner(owner),
            Err(next) => LookupStep::Forward(
                next,
                DhtMsg::Chord(ChordMsg::FindSucc {
                    target,
                    token,
                    origin,
                    purpose: FindPurpose::Lookup,
                    ttl: ROUTE_TTL,
                }),
            ),
        }
    }

    /// Dispatch one Chord message. Returns what is left for the
    /// provider: a lookup this reply resolved, a broadcast payload to
    /// deliver here, or nothing.
    pub fn handle<V: Wire + Clone>(
        &mut self,
        io: &mut Lend<'_, V>,
        from: NodeId,
        msg: ChordMsg<V>,
    ) -> Routed<V> {
        match msg {
            ChordMsg::FindSucc {
                target,
                token,
                origin,
                purpose,
                ttl,
            } => match self.find_succ_step(target) {
                Ok((succ_ring, succ)) => io.send(
                    origin,
                    DhtMsg::Chord(ChordMsg::FoundSucc {
                        token,
                        target,
                        purpose,
                        succ_ring,
                        succ,
                    }),
                ),
                Err(next) if ttl > 0 => io.send(
                    next,
                    DhtMsg::Chord(ChordMsg::FindSucc {
                        target,
                        token,
                        origin,
                        purpose,
                        ttl: ttl - 1,
                    }),
                ),
                Err(_) => {}
            },
            ChordMsg::FoundSucc {
                token,
                purpose,
                succ_ring,
                succ,
                ..
            } => match purpose {
                FindPurpose::Join => self.complete_join(io, succ_ring, succ),
                FindPurpose::Finger(k) => self.set_finger(k as usize, succ_ring, succ),
                FindPurpose::Lookup => return Routed::Resolved { token, owner: succ },
            },
            ChordMsg::GetNeighborhood => {
                let reply = ChordMsg::Neighborhood {
                    pred: self.predecessor,
                    succs: self.successors.clone(),
                };
                io.send(from, DhtMsg::Chord(reply));
            }
            ChordMsg::Neighborhood { pred, succs } => {
                self.handle_neighborhood(io, from, pred, succs);
            }
            ChordMsg::Notify { ring } => self.handle_notify(io.env.now(), from, ring, io.events),
            ChordMsg::Bcast {
                id,
                origin,
                payload,
                limit,
            } => return self.broadcast(io, id, origin, payload, limit),
        }
        Routed::Nothing
    }

    /// Start a broadcast: this node is the root of a tree covering the
    /// whole ring.
    pub fn multicast<V: Wire + Clone>(
        &self,
        io: &mut Lend<'_, V>,
        id: u64,
        origin: NodeId,
        payload: V,
    ) -> Routed<V> {
        self.broadcast(io, id, origin, payload, self.ring)
    }

    /// Forward `payload` to our children in the broadcast tree covering
    /// `(self.ring, limit)` and hand it back for local delivery.
    fn broadcast<V: Wire + Clone>(
        &self,
        io: &mut Lend<'_, V>,
        id: u64,
        origin: NodeId,
        payload: V,
        limit: u64,
    ) -> Routed<V> {
        for (child, child_limit) in self.broadcast_children(limit) {
            io.send(
                child,
                DhtMsg::Chord(ChordMsg::Bcast {
                    id,
                    origin,
                    payload: payload.clone(),
                    limit: child_limit,
                }),
            );
        }
        Routed::Deliver {
            id,
            origin,
            payload,
        }
    }

    /// Install the join result: our successor.
    fn complete_join<V: Wire>(&mut self, io: &mut Lend<'_, V>, succ_ring: u64, succ: NodeId) {
        if self.joined {
            return;
        }
        self.joined = true;
        if succ != self.me {
            self.successors = vec![(succ_ring, succ)];
            self.succ_last_seen = io.env.now();
            io.send(succ, DhtMsg::Chord(ChordMsg::Notify { ring: self.ring }));
        }
        io.events.push(DhtEvent::LocationMapChanged);
    }

    /// `notify(x)`: x believes it might be our predecessor.
    fn handle_notify<V>(
        &mut self,
        now: Time,
        from: NodeId,
        from_ring: u64,
        events: &mut Vec<DhtEvent<V>>,
    ) {
        let adopt = match self.predecessor {
            None => true,
            Some((pring, pid)) => pid == from || in_open(pring, from_ring, self.ring),
        };
        if adopt {
            let changed = self.predecessor.map(|(_, id)| id) != Some(from);
            self.predecessor = Some((from_ring, from));
            self.pred_last_seen = now;
            if changed {
                // Our owned range shrank: keys in (old_pred, new_pred]
                // now belong elsewhere (re-homed by the provider's `place`).
                events.push(DhtEvent::LocationMapChanged);
            }
        }
        // A single-node ring learns of a second node: adopt as successor.
        if self.successors.is_empty() && from != self.me {
            self.successors = vec![(from_ring, from)];
            self.succ_last_seen = now;
        }
    }

    /// Stabilization reply from our successor.
    fn handle_neighborhood<V: Wire>(
        &mut self,
        io: &mut Lend<'_, V>,
        from: NodeId,
        pred: Option<(u64, NodeId)>,
        succs: Vec<(u64, NodeId)>,
    ) {
        let now = io.env.now();
        if self.successor().map(|(_, id)| id) == Some(from) {
            self.succ_last_seen = now;
        }
        if let Some((sring, _sid)) = self.successor() {
            if let Some((pring, pid)) = pred {
                if pid != self.me && in_open(self.ring, pring, sring) {
                    // A closer successor exists.
                    self.successors.insert(0, (pring, pid));
                }
            }
        }
        // Extend our successor list with our successor's.
        let mut list = self.successors.clone();
        for s in succs {
            if s.1 != self.me {
                list.push(s);
            }
        }
        // Sort by ring distance after me, dedupe by node.
        list.sort_by_key(|&(r, _)| r.wrapping_sub(self.ring).wrapping_sub(1));
        list.dedup_by_key(|&mut (_, id)| id);
        let mut seen = std::collections::HashSet::new();
        list.retain(|&(_, id)| seen.insert(id));
        list.truncate(SUCC_LIST);
        self.successors = list;
        if let Some((_, sid)) = self.successor() {
            if sid != self.me {
                io.send(sid, DhtMsg::Chord(ChordMsg::Notify { ring: self.ring }));
            }
        }
    }

    /// Record a finger-table lookup result.
    fn set_finger(&mut self, k: usize, ring: u64, id: NodeId) {
        if k < FINGERS {
            self.fingers[k] = Some((ring, id));
        }
    }

    /// Periodic stabilization: probe the successor, refresh one finger,
    /// expire silent neighbors.
    pub fn tick<V: Wire>(&mut self, io: &mut Lend<'_, V>, cfg: &DhtConfig) {
        if !self.joined || !cfg.maintenance {
            return;
        }
        let now = io.env.now();
        // Successor failure: drop and promote the next in the list.
        if let Some((_, sid)) = self.successor() {
            if now.since(self.succ_last_seen) > cfg.fail_after {
                self.successors.remove(0);
                self.fingers.iter_mut().for_each(|f| {
                    if f.map(|(_, id)| id) == Some(sid) {
                        *f = None;
                    }
                });
                self.succ_last_seen = now;
                io.events.push(DhtEvent::LocationMapChanged);
            }
        }
        // Predecessor timeout widens our owned range until a new notify.
        if let Some((_, _pid)) = self.predecessor {
            if now.since(self.pred_last_seen) > cfg.fail_after {
                self.predecessor = None;
                io.events.push(DhtEvent::LocationMapChanged);
            }
        }
        if let Some((_, sid)) = self.successor() {
            if sid != self.me {
                io.send(sid, DhtMsg::Chord(ChordMsg::GetNeighborhood));
            }
        }
        // Refresh one finger per tick.
        let k = self.next_finger;
        self.next_finger = (self.next_finger + 1) % FINGERS;
        let target = self.ring.wrapping_add(1u64 << k);
        match self.find_succ_step(target) {
            Ok((r, id)) => self.set_finger(k, r, id),
            Err(next) => io.send(
                next,
                DhtMsg::Chord(ChordMsg::FindSucc {
                    target,
                    token: 0,
                    origin: self.me,
                    purpose: FindPurpose::Finger(k as u8),
                    ttl: ROUTE_TTL,
                }),
            ),
        }
    }

    /// Children of the broadcast tree covering `(self.ring, limit)`:
    /// distinct known nodes in the interval, each assigned the sub-range
    /// up to the next child (El-Ansary et al. broadcast).
    pub fn broadcast_children(&self, limit: u64) -> Vec<(NodeId, u64)> {
        let mut nodes: Vec<(u64, NodeId)> = self
            .fingers
            .iter()
            .flatten()
            .chain(self.successors.iter())
            .copied()
            .filter(|&(r, id)| id != self.me && in_open(self.ring, r, limit))
            .collect();
        nodes.sort_by_key(|&(r, _)| r.wrapping_sub(self.ring).wrapping_sub(1));
        nodes.dedup_by_key(|&mut (_, id)| id);
        let mut seen = std::collections::HashSet::new();
        nodes.retain(|&(_, id)| seen.insert(id));
        let mut out = Vec::with_capacity(nodes.len());
        for (i, &(_r, id)) in nodes.iter().enumerate() {
            let child_limit = if i + 1 < nodes.len() {
                nodes[i + 1].0
            } else {
                limit
            };
            out.push((id, child_limit));
        }
        out
    }
}

/// Build a fully stabilized ring for `n` nodes (fast bootstrap for large
/// experiments; mirrors `can::balanced_overlay`).
pub fn balanced_chord_overlay(n: usize, now: Time) -> Vec<ChordState> {
    let mut order: Vec<(u64, NodeId)> = (0..n as NodeId).map(|i| (ring_of_node(i), i)).collect();
    order.sort_unstable();
    // Ids are `0..n`: where each sits in the sorted ring, by id.
    let mut pos_of = vec![0; n];
    for (i, &(_, id)) in order.iter().enumerate() {
        pos_of[id as usize] = i;
    }
    (0..n as NodeId)
        .map(|me| {
            let mut s = ChordState::new(me);
            s.joined = true;
            s.succ_last_seen = now;
            s.pred_last_seen = now;
            let i = pos_of[me as usize];
            if n > 1 {
                s.predecessor = Some(order[(i + n - 1) % n]);
                s.successors = (1..=SUCC_LIST.min(n - 1))
                    .map(|k| order[(i + k) % n])
                    .collect();
                for k in 0..FINGERS {
                    let target = s.ring.wrapping_add(1u64 << k);
                    // Successor of target in the sorted ring.
                    let j = order.partition_point(|&(r, _)| r < target) % n;
                    let cand = order[j];
                    if cand.1 != me {
                        s.fingers[k] = Some(cand);
                    }
                }
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_interval_predicates() {
        assert!(in_open_closed(10, 20, 30));
        assert!(in_open_closed(10, 30, 30));
        assert!(!in_open_closed(10, 10, 30));
        // Wrap-around.
        assert!(in_open_closed(u64::MAX - 5, 3, 10));
        assert!(!in_open_closed(u64::MAX - 5, u64::MAX - 6, 10));
        // Degenerate = full ring.
        assert!(in_open_closed(7, 1, 7));
        assert!(in_open(5, 6, 8));
        assert!(!in_open(5, 8, 8));
    }

    #[test]
    fn balanced_ring_owns_partition_exactly() {
        let n = 64;
        let states = balanced_chord_overlay(n, Time::ZERO);
        for key in 0..500u64 {
            let pos = ring_of_key(key);
            let owners = states.iter().filter(|s| s.owns_pos(pos)).count();
            assert_eq!(owners, 1, "key {key}");
        }
    }

    #[test]
    fn find_succ_step_converges_in_log_hops() {
        let n = 256;
        let states = balanced_chord_overlay(n, Time::ZERO);
        for key in 0..200u64 {
            let pos = ring_of_key(key * 31 + 7);
            let mut cur = (key as usize) % n;
            let mut hops = 0;
            let owner = loop {
                match states[cur].find_succ_step(pos) {
                    Ok((_, id)) => break id,
                    Err(next) => {
                        cur = next as usize;
                        hops += 1;
                        assert!(hops < 64, "too many hops");
                    }
                }
            };
            assert!(states[owner as usize].owns_pos(pos));
            assert!(hops <= 16, "O(log n) expected, got {hops}");
        }
    }

    #[test]
    fn broadcast_tree_covers_every_node_once() {
        let n = 128;
        let states = balanced_chord_overlay(n, Time::ZERO);
        // Start at node 0, cover the full ring.
        let mut delivered = vec![0usize; n];
        let mut stack = vec![(0 as NodeId, states[0].ring)]; // (node, limit)
        while let Some((node, limit)) = stack.pop() {
            delivered[node as usize] += 1;
            for (child, child_limit) in states[node as usize].broadcast_children(limit) {
                stack.push((child, child_limit));
            }
        }
        assert!(delivered.iter().all(|&c| c == 1), "{delivered:?}");
    }

    #[test]
    fn notify_adopts_closer_predecessor() {
        let mut s = ChordState::new(0);
        s.start_first();
        let mut ev: Vec<DhtEvent<Vec<u8>>> = Vec::new();
        let a = ring_of_node(1);
        s.handle_notify(Time(1), 1, a, &mut ev);
        assert_eq!(s.predecessor, Some((a, 1)));
        assert_eq!(s.successor(), Some((a, 1)));
        // A node strictly between a and us replaces the predecessor.
        let mut b_id = 2;
        let mut b = ring_of_node(b_id);
        let mut tries = 3;
        while !in_open(a, b, s.ring) {
            b_id = tries;
            b = ring_of_node(b_id);
            tries += 1;
        }
        s.handle_notify(Time(2), b_id, b, &mut ev);
        assert_eq!(s.predecessor, Some((b, b_id)));
        // A farther node does not.
        s.handle_notify(Time(3), 1, a, &mut ev);
        assert_eq!(s.predecessor, Some((b, b_id)));
    }

    #[test]
    fn owns_pos_honours_predecessor_range() {
        let states = balanced_chord_overlay(8, Time::ZERO);
        for s in &states {
            let (pring, _) = s.predecessor.unwrap();
            assert!(s.owns_pos(s.ring));
            assert!(!s.owns_pos(pring));
        }
    }
}
