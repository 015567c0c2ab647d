//! The actor runtime: one free-running select loop per node, driven
//! from the outside only through a cloneable client handle.
//!
//! PIER's deployment shape (§3 of the paper) is an overlay of
//! autonomous nodes exchanging asynchronous messages — not a set of
//! automata lock-stepped by a harness. This module is that shape as a
//! first-class runtime:
//!
//! * a **node actor** owns all mutable state (the [`App`] automaton,
//!   its timers, its RNG) and runs a single select loop over an
//!   inbound mailbox of envelopes — network messages pushed by its
//!   peers over the cluster's links, typed requests from clients, and
//!   lifecycle control (revive / stop);
//! * a [`NodeHandle`] is the *only* way benches, tests, and
//!   co-resident apps interact with a running actor. It is cheap to
//!   clone and sends typed [`Service::Req`] messages; there is no
//!   closure-injection API, so nothing outside the actor thread can
//!   ever touch node state.
//!
//! The handle/actor split follows the `DHTClient`/`DHTNode` pair of
//! production DHT stacks: consumers never see the node object, only
//! the client; the node owns the loop.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::app::{Action, App, Ctx};
use crate::time::Time;
use crate::transport::Links;
use crate::NodeId;

/// An [`App`] that also answers typed requests from client handles.
///
/// Requests are the actor runtime's replacement for closure injection:
/// instead of shipping a `FnOnce(&mut A)` to the node thread, a client
/// sends a `Req` value and the actor answers with a `Resp`, both
/// executing inside the node's own loop with a full [`Ctx`] (so a
/// request handler may send messages and set timers like any other
/// callback). This keeps the wire between client and node serializable
/// in principle — the prerequisite for a multi-process transport.
pub trait Service: App {
    /// Typed request accepted from a [`NodeHandle`].
    type Req: Send + 'static;
    /// Typed response returned to the requester.
    type Resp: Send + 'static;

    /// Handle one request on the actor thread.
    fn on_request(&mut self, ctx: &mut Ctx<Self::Msg>, req: Self::Req) -> Self::Resp;
}

/// Everything that can land in an actor's mailbox.
pub(crate) enum Envelope<A: Service> {
    /// A network message pushed by a peer over the links.
    Msg { from: NodeId, msg: A::Msg },
    /// A typed request from a [`NodeHandle`]; `reply` is `None` for
    /// fire-and-forget casts. Dropping the reply sender unanswered
    /// (node killed, request discarded) disconnects the requester.
    Request {
        req: A::Req,
        reply: Option<Sender<A::Resp>>,
    },
    /// Re-seat a fresh automaton at this id, living in life epoch
    /// `epoch` (see `Cluster::revive`).
    Revive { app: A, epoch: u64 },
    /// Wake the thread so it notices a kill; no other effect.
    Nudge,
    /// Shut the thread down for good (cluster teardown).
    Stop,
}

/// Cloneable client half of a node actor.
///
/// Holding a handle does not keep the actor alive; requests to a node
/// that has been killed (or whose cluster has shut down) return `None`.
pub struct NodeHandle<A: Service> {
    id: NodeId,
    tx: Sender<Envelope<A>>,
    links: Arc<Links<A>>,
}

impl<A: Service> Clone for NodeHandle<A> {
    fn clone(&self) -> Self {
        NodeHandle {
            id: self.id,
            tx: self.tx.clone(),
            links: Arc::clone(&self.links),
        }
    }
}

impl<A: Service> NodeHandle<A> {
    pub(crate) fn new(id: NodeId, tx: Sender<Envelope<A>>, links: Arc<Links<A>>) -> Self {
        NodeHandle { id, tx, links }
    }

    /// The node this handle talks to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Has the node not been killed?
    pub fn alive(&self) -> bool {
        self.links.alive(self.id)
    }

    /// Send `req` and wait for the actor's typed response. Returns
    /// `None` if the node has been killed — before the request was
    /// sent, or while it was still queued (a discarded request drops
    /// its reply channel, which disconnects this call).
    pub fn request(&self, req: A::Req) -> Option<A::Resp> {
        if !self.alive() {
            return None;
        }
        let (tx, rx) = bounded(1);
        self.tx
            .send(Envelope::Request {
                req,
                reply: Some(tx),
            })
            .ok()?;
        // A kill can land after the send but before the actor dispatches
        // the request; the parked actor then drops the reply sender and
        // `rx` disconnects. Poll the kill flag as well so a request
        // never blocks on a corpse that has not reached its mailbox yet.
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(r) => return Some(r),
                Err(RecvTimeoutError::Timeout) => {
                    if !self.alive() {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Fire-and-forget request: dispatched on the actor thread, response
    /// discarded.
    pub fn cast(&self, req: A::Req) {
        let _ = self.tx.send(Envelope::Request { req, reply: None });
    }
}

/// Decrements the live-thread census when an actor thread exits — on
/// clean shutdown *and* on unwind, so leak checks see the truth.
struct CensusGuard(Arc<AtomicUsize>);

impl Drop for CensusGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawn the actor thread for node `me`: the select loop over its
/// mailbox. Returns the join handle yielding the final automaton.
///
/// `census` counts live actor threads; it is incremented here (on the
/// caller's thread, so the count is correct the moment this returns)
/// and decremented when the thread exits.
pub(crate) fn spawn_actor<A: Service + 'static>(
    mut app: A,
    me: NodeId,
    seed: u64,
    start: Instant,
    rx: Receiver<Envelope<A>>,
    links: Arc<Links<A>>,
    census: Arc<AtomicUsize>,
) -> JoinHandle<A>
where
    A::Msg: Send + 'static,
{
    census.fetch_add(1, Ordering::SeqCst);
    let guard = CensusGuard(census);
    std::thread::Builder::new()
        .name(format!("pier-actor-{me}"))
        .spawn(move || {
            let _guard = guard;
            let mut rng = SmallRng::seed_from_u64(actor_seed(seed, me));
            let mut timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>> = BinaryHeap::new();
            let mut actions: Vec<Action<A::Msg>> = Vec::new();

            // Apply buffered actions: sends go out through the links
            // (which classify drops and account stats); timers stay
            // actor-local.
            let flush =
                |actions: &mut Vec<Action<A::Msg>>,
                 timers: &mut BinaryHeap<std::cmp::Reverse<(Instant, u64)>>| {
                    for action in actions.drain(..) {
                        match action {
                            Action::Send { to, msg } => links.send(me, to, msg),
                            Action::Timer { after, token } => {
                                let deadline =
                                    Instant::now() + Duration::from_micros(after.as_micros());
                                timers.push(std::cmp::Reverse((deadline, token)));
                            }
                        }
                    }
                };

            let now_of = |start: Instant| Time(start.elapsed().as_micros() as u64);

            {
                let mut ctx = Ctx::new(now_of(start), me, &mut rng, &mut actions);
                app.on_start(&mut ctx);
            }
            flush(&mut actions, &mut timers);

            // Death must be abrupt: the life epoch is checked before
            // *every* dispatch, so a killed node never drains its
            // backlog the way a queued `Stop` would — matching
            // `Sim::fail_node`, which freezes state instantly. The
            // automaton is dead once the epoch has moved past the one
            // it was seated in; a revive that raced the kill moves it
            // further still, so the old automaton stays dead. A killed
            // actor does not exit: it keeps discarding mailbox traffic
            // (state frozen at the kill instant for post-mortem
            // inspection) until a `Revive` re-seats it or the cluster
            // shuts down.
            let mut seated = 0;
            let dead = |seated: u64| links.epoch(me) > seated;
            loop {
                let timeout = match timers.peek() {
                    Some(std::cmp::Reverse((deadline, _))) if !dead(seated) => {
                        deadline.saturating_duration_since(Instant::now())
                    }
                    _ => Duration::from_millis(200),
                };
                match rx.recv_timeout(timeout) {
                    Ok(Envelope::Msg { from, msg }) => {
                        links.note_dequeue(me);
                        if !dead(seated) {
                            let mut ctx = Ctx::new(now_of(start), me, &mut rng, &mut actions);
                            app.on_message(&mut ctx, from, msg);
                        }
                    }
                    // A request discarded here drops its reply channel,
                    // so the blocked client observes `None`.
                    Ok(Envelope::Request { req, reply }) => {
                        if !dead(seated) {
                            let mut ctx = Ctx::new(now_of(start), me, &mut rng, &mut actions);
                            let resp = app.on_request(&mut ctx, req);
                            if let Some(reply) = reply {
                                let _ = reply.send(resp);
                            }
                        }
                    }
                    Ok(Envelope::Revive { app: fresh, epoch }) => {
                        app = fresh;
                        seated = epoch;
                        rng = SmallRng::seed_from_u64(actor_seed(seed, me));
                        // Timers that came due while the node was dead
                        // would have dispatched into a corpse; drop them
                        // so the successor only sees timers still in the
                        // future — the simulator's exact behaviour,
                        // where due-while-dead timer events dissolve
                        // against the empty slot.
                        let now = Instant::now();
                        while timers
                            .peek()
                            .is_some_and(|std::cmp::Reverse((d, _))| *d <= now)
                        {
                            timers.pop();
                        }
                        let mut ctx = Ctx::new(now_of(start), me, &mut rng, &mut actions);
                        app.on_start(&mut ctx);
                    }
                    Ok(Envelope::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                    Ok(Envelope::Nudge) | Err(RecvTimeoutError::Timeout) => {}
                }
                flush(&mut actions, &mut timers);
                // Fire all due timers.
                while let Some(std::cmp::Reverse((deadline, token))) = timers.peek().copied() {
                    if deadline > Instant::now() || dead(seated) {
                        break;
                    }
                    timers.pop();
                    let mut ctx = Ctx::new(now_of(start), me, &mut rng, &mut actions);
                    app.on_timer(&mut ctx, token);
                    flush(&mut actions, &mut timers);
                }
            }
            app
        })
        .expect("spawn actor thread")
}

/// Per-node RNG seed derivation — identical at spawn and revive so a
/// replacement automaton draws the same stream a fresh process would.
fn actor_seed(seed: u64, me: NodeId) -> u64 {
    seed.wrapping_add((me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
