//! The node automaton interface shared by both backends: [`App`], the
//! three event callbacks, and [`Service`], typed requests on top.

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

/// An action emitted by a node handler, applied by the engine after the
/// handler returns.
#[derive(Debug)]
pub enum Action<M> {
    /// Send `msg` to node `to` over the network.
    Send { to: NodeId, msg: M },
    /// Fire `on_timer(token)` after `after` has elapsed.
    Timer { after: Dur, token: u64 },
}

/// Handler context: the node's view of the engine during one callback.
pub struct Ctx<'a, M> {
    /// Current engine time (virtual under simulation, wall-clock offset
    /// since spawn on a `Cluster`).
    pub now: Time,
    /// This node's id.
    pub me: NodeId,
    /// Per-node deterministic RNG (seeded from the engine seed and node id).
    pub rng: &'a mut SmallRng,
    pub(crate) actions: &'a mut Vec<Action<M>>,
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn new(
        now: Time,
        me: NodeId,
        rng: &'a mut SmallRng,
        actions: &'a mut Vec<Action<M>>,
    ) -> Self {
        Ctx {
            now,
            me,
            rng,
            actions,
        }
    }

    /// Queue a message for delivery to `to`. Delivery is asynchronous and
    /// unreliable in the presence of failures: messages addressed to a
    /// failed node are silently dropped, exactly like UDP datagrams in the
    /// paper's soft-state world.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Schedule `on_timer(token)` to fire `after` from now. There is no
    /// cancellation; automata are expected to ignore stale tokens (the
    /// idiom used throughout the DHT layer).
    pub fn set_timer(&mut self, after: Dur, token: u64) {
        self.actions.push(Action::Timer { after, token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_buffers_actions_in_order() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut actions: Vec<Action<u32>> = Vec::new();
        let mut ctx = Ctx::new(Time::ZERO, 0, &mut rng, &mut actions);
        ctx.send(3, 42);
        ctx.set_timer(Dur::from_secs(1), 9);
        ctx.send(1, 7);
        assert_eq!(actions.len(), 3);
        match &actions[0] {
            Action::Send { to, msg } => assert_eq!((*to, *msg), (3, 42)),
            _ => panic!("expected send"),
        }
        match &actions[1] {
            Action::Timer { after, token } => {
                assert_eq!(*after, Dur::from_secs(1));
                assert_eq!(*token, 9);
            }
            _ => panic!("expected timer"),
        }
    }
}
