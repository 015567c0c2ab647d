//! The node automaton interface shared by both backends: [`App`], the
//! three event callbacks, and [`Service`], typed requests on top.

use crate::engine::Events;
use crate::time::{Dur, Time};
use crate::{NodeId, Wire};
use rand::rngs::SmallRng;

/// A PIER node as an event-driven automaton.
///
/// All node-local logic (DHT routing, storage, query processing) lives
/// behind these three callbacks, so the identical code runs under the
/// discrete-event [`crate::Sim`] and the wall-clock
/// [`crate::cluster::Cluster`].
///
/// Callbacks receive a [`Ctx`] through which the node sends messages, sets
/// timers, and draws deterministic randomness. Handlers must not block.
///
/// Automata (and their messages) are `Send`: a
/// [`crate::cluster::Cluster`] seats each one on a worker thread of its
/// pool, and a multi-core [`crate::Sim`] moves whole shards of them
/// onto worker threads at every run.
pub trait App: Sized + Send {
    /// Message type exchanged between nodes of this application.
    type Msg: Wire + Clone + Send;

    /// Invoked once when the node is added to the engine.
    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Invoked when a message from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Invoked when a timer previously set with [`Ctx::set_timer`] fires.
    /// `token` is the app-chosen value passed at registration.
    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, token: u64);
}

/// An [`App`] that also answers typed requests from outside the node.
///
/// Requests are how a driver reaches a running node on every backend:
/// instead of shipping a `FnOnce(&mut A)` into the engine, a client
/// sends a `Req` value and the node answers with a `Resp`, both
/// executing inside the node's own handler with a full [`Ctx`] (so a
/// request handler may send messages and set timers like any other
/// callback). This keeps the wire between client and node serializable
/// in principle — the prerequisite for a multi-process transport.
pub trait Service: App {
    /// Typed request accepted through [`crate::Deployment::request`] or
    /// a [`crate::NodeHandle`].
    type Req: Send + 'static;
    /// Typed response returned to the requester.
    type Resp: Send + 'static;

    /// Handle one request, as one handler of the node.
    fn on_request(&mut self, ctx: &mut Ctx<Self::Msg>, req: Self::Req) -> Self::Resp;
}

/// Handler context: the node's view of the engine during one callback.
///
/// A send or a timer is filed into the engine as the handler makes it,
/// under the node's next event number, so the order of a handler's
/// effects is the order of its calls.
pub struct Ctx<'a, M> {
    /// Current engine time (virtual under simulation, wall-clock offset
    /// since spawn on a `Cluster`).
    pub now: Time,
    /// This node's id.
    pub me: NodeId,
    /// Per-node deterministic RNG (seeded from the engine seed and node id).
    pub rng: &'a mut SmallRng,
    oseq: &'a mut u64,
    events: &'a mut Events<M>,
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn new(
        now: Time,
        me: NodeId,
        rng: &'a mut SmallRng,
        oseq: &'a mut u64,
        events: &'a mut Events<M>,
    ) -> Self {
        Ctx {
            now,
            me,
            rng,
            oseq,
            events,
        }
    }

    /// This node's next event number.
    fn next_oseq(&mut self) -> u64 {
        *self.oseq += 1;
        *self.oseq
    }

    /// Queue a message for delivery to `to`. Delivery is asynchronous and
    /// unreliable in the presence of failures: messages addressed to a
    /// failed node are silently dropped, exactly like UDP datagrams in the
    /// paper's soft-state world.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let oseq = self.next_oseq();
        self.events.send(self.now, self.me, to, oseq, msg);
    }

    /// Schedule `on_timer(token)` to fire `after` from now. There is no
    /// cancellation; automata are expected to ignore stale tokens (the
    /// idiom used throughout the DHT layer).
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        let oseq = self.next_oseq();
        self.events.timer(self.now + after, self.me, oseq, token);
    }
}
