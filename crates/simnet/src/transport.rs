//! The channel backend's link state: what a [`crate::Cluster`] and its
//! actors share to carry messages between mailboxes.
//!
//! A send is an immediate push into the destination's FIFO mailbox —
//! wall clock, no global barrier of any kind — after the destination's
//! fault state has classified it, mirroring the simulator's routing
//! exactly (see [`crate::Deployment`] for the contract). Everything
//! crossing a link is a value, not a closure, which is what keeps a
//! socket backend a one-file change.
//!
//! # The life epoch
//!
//! Each node has one monotone counter: even while a process is seated
//! at the id, odd while it is killed. [`Links::kill`] and
//! [`Links::revive`] each advance it by one, and an actor remembers the
//! epoch its automaton was seated in — so "has this automaton been
//! killed?" is `epoch > seated`, which stays true after a revive that
//! raced the kill. A plain alive/dead flag cannot tell those apart: the
//! revive would flip it back before the actor looked, and the old
//! automaton would go on draining its pre-kill backlog.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crossbeam::channel::Sender;

use crate::actor::{Envelope, Service};
use crate::stats::{AtomicNetStats, NetStats};
use crate::{NodeId, Wire};

/// Send-side state shared by every actor of one cluster: mailbox
/// senders, per-node fault state, and the traffic counters. Every actor
/// holds an `Arc<Links>`; a send consults the destination's fault
/// state, accounts the outcome, and pushes into its mailbox.
pub(crate) struct Links<A: Service> {
    senders: Vec<Sender<Envelope<A>>>,
    /// Life epoch per node (see the module docs): even = alive.
    epoch: Vec<AtomicU64>,
    drop_inbound: Vec<AtomicBool>,
    stats: AtomicNetStats,
    /// Network messages currently enqueued per mailbox: incremented on
    /// a delivered `Envelope::Msg`, decremented when the actor dequeues
    /// it (dispatched live or discarded dead). The depth gauge behind
    /// `Cluster::mailbox_depth` — a sustained rise on one node is the
    /// backlog signature of an overloaded or wedged actor.
    depth: Vec<AtomicUsize>,
}

impl<A: Service> Links<A> {
    pub(crate) fn new(senders: Vec<Sender<Envelope<A>>>) -> Self {
        let n = senders.len();
        Links {
            senders,
            epoch: (0..n).map(|_| AtomicU64::new(0)).collect(),
            drop_inbound: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stats: AtomicNetStats::new(n),
            depth: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Classify-and-deliver one message on the `src → dst` link,
    /// mirroring the simulator's routing exactly: drop windows spare
    /// self-sends (a node's loopback never crosses the faulted link),
    /// and loopback traffic is never accounted — delivered, but not
    /// counted as messages, bytes, or drops.
    pub(crate) fn send(&self, src: NodeId, dst: NodeId, msg: A::Msg) {
        let Some(tx) = self.senders.get(dst as usize) else {
            return;
        };
        if dst != src && self.drop_inbound[dst as usize].load(Ordering::Relaxed) {
            self.stats.record_dropped_in_window();
            return;
        }
        // Liveness next: traffic to a dead node is not traffic, it is
        // a drop — exactly how the simulator classifies it.
        if !self.alive(dst) {
            if dst != src {
                self.stats.record_dropped_to_failed();
            }
            return;
        }
        if dst != src {
            self.stats.record_delivery(dst, msg.wire_size());
        }
        if tx.send(Envelope::Msg { from: src, msg }).is_ok() {
            self.depth[dst as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One `Envelope::Msg` left `id`'s mailbox (dispatched or
    /// discarded); called by the actor loop only.
    pub(crate) fn note_dequeue(&self, id: NodeId) {
        if let Some(d) = self.depth.get(id as usize) {
            d.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Network messages currently waiting in `id`'s mailbox.
    pub(crate) fn mailbox_depth(&self, id: NodeId) -> usize {
        self.depth
            .get(id as usize)
            .map_or(0, |d| d.load(Ordering::Relaxed))
    }

    /// Current life epoch of `id` (0 for an id out of range). `SeqCst`
    /// throughout: the epoch orders a kill against the dispatches of
    /// the actor it kills.
    pub(crate) fn epoch(&self, id: NodeId) -> u64 {
        self.epoch
            .get(id as usize)
            .map_or(0, |e| e.load(Ordering::SeqCst))
    }

    pub(crate) fn alive(&self, id: NodeId) -> bool {
        let epoch = self.epoch.get(id as usize);
        epoch.is_some_and(|e| e.load(Ordering::SeqCst).is_multiple_of(2))
    }

    /// Abruptly kill `node`: advance its epoch (checked before every
    /// dispatch, so death is immediate even with a loaded mailbox) and
    /// nudge the actor awake so it notices promptly. No-op on a node
    /// that is already dead.
    pub(crate) fn kill(&self, node: NodeId) {
        let (Some(epoch), Some(tx)) = (self.epoch.get(node as usize), self.sender(node)) else {
            return;
        };
        let alive = |e: u64| e.is_multiple_of(2).then_some(e + 1);
        if epoch
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, alive)
            .is_ok()
        {
            let _ = tx.send(Envelope::Nudge);
        }
    }

    /// Re-seat a fresh automaton at a killed id. Returns `false` if
    /// `node` is out of range or still alive.
    pub(crate) fn revive(&self, node: NodeId, app: A) -> bool {
        let (Some(epoch), Some(tx)) = (self.epoch.get(node as usize), self.sender(node)) else {
            return false;
        };
        let dead = epoch.load(Ordering::SeqCst);
        if dead.is_multiple_of(2) {
            return false;
        }
        // The envelope names the epoch the newcomer lives in, so the
        // actor seats it correctly even if it gets there before the
        // store below. Liveness flips right after the send: peers route
        // traffic to the newcomer at once, and it queues behind the
        // `Revive` to be dispatched afterwards.
        let seated = dead + 1;
        if tx.send(Envelope::Revive { app, epoch: seated }).is_err() {
            return false;
        }
        epoch.store(seated, Ordering::SeqCst);
        true
    }

    pub(crate) fn set_inbound_drop(&self, node: NodeId, dropping: bool) {
        if let Some(flag) = self.drop_inbound.get(node as usize) {
            flag.store(dropping, Ordering::Relaxed);
        }
    }

    pub(crate) fn sender(&self, id: NodeId) -> Option<&Sender<Envelope<A>>> {
        self.senders.get(id as usize)
    }

    pub(crate) fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }
}
