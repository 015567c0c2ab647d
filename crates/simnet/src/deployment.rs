//! The one driver surface over both backends.
//!
//! The paper runs one code base "under simulation and deployed on a
//! cluster" (§5.2); [`Deployment`] is what a harness needs to say the
//! same. A test, experiment, or fault script written against it runs
//! unchanged on the deterministic [`Sim`] (any shard count, virtual
//! clock) and on the [`Cluster`] (a worker pool pacing the same event
//! core by the wall clock). It is the client side of the client/node split: a
//! driver never touches a node's state, it sends the node typed
//! [`Service`] requests and reads the answers.
//!
//! There is deliberately no raw `send`: traffic enters a deployment the
//! way real traffic does, through a request whose handler emits it from
//! inside the node — so injected sends cross the network model (or the
//! workers' inboxes) exactly as automaton traffic does, and no backend
//! needs a second injection path.
//!
//! What the surface does *not* promise: cross-pair ordering, or
//! reliability under faults. Per src→dst pair, messages arrive in send
//! order; messages to killed destinations or into open drop windows are
//! counted and discarded, never queued. `tests/deployment_conformance.rs`
//! pins that every backend classifies identical traffic identically.

use crate::app::Service;
use crate::cluster::Cluster;
use crate::engine::Sim;
use crate::fault::Fault;
use crate::stats::NetStats;
use crate::time::{Dur, Time};
use crate::NodeId;

/// Backend-agnostic control of a running set of [`Service`] nodes.
pub trait Deployment<A: Service> {
    fn node_count(&self) -> usize;
    /// The backend's clock: virtual on [`Sim`], wall time since spawn
    /// on [`Cluster`].
    fn now(&self) -> Time;
    /// Has `node` not been killed?
    fn alive(&self, node: NodeId) -> bool;
    /// Abrupt node failure: `node` stops at once, backlog undispatched;
    /// traffic addressed to it counts as `dropped_to_failed`.
    fn kill(&mut self, node: NodeId);
    /// Re-seat a fresh automaton at a killed id. `false` if the id is
    /// out of range or still alive.
    fn revive(&mut self, node: NodeId, app: A) -> bool;
    /// Open or close a message-drop window on `node`'s inbound side
    /// (the node stays alive and its timers keep firing).
    fn set_inbound_drop(&mut self, node: NodeId, dropping: bool);
    /// Hand `req` to `node`'s request handler and return its answer;
    /// `None` if the node is dead. Whatever the handler sends leaves
    /// the node like any other automaton traffic.
    fn request(&mut self, node: NodeId, req: A::Req) -> Option<A::Resp>;
    /// Let the deployment run for `d` of its own clock.
    fn settle(&mut self, d: Dur);
    /// Traffic counters, in the one cross-backend vocabulary.
    fn stats(&self) -> NetStats;

    /// Execute one scripted fault; `make_replacement` builds the
    /// newcomer for a [`Fault::Join`].
    fn apply(&mut self, fault: &Fault, make_replacement: impl FnOnce(NodeId) -> A)
    where
        Self: Sized,
    {
        match *fault {
            Fault::Kill { node } => self.kill(node),
            Fault::DropStart { node } => self.set_inbound_drop(node, true),
            Fault::DropEnd { node } => self.set_inbound_drop(node, false),
            Fault::Join { node } => {
                self.revive(node, make_replacement(node));
            }
        }
    }
}

impl<A: Service> Deployment<A> for Sim<A> {
    fn node_count(&self) -> usize {
        Sim::node_count(self)
    }
    fn now(&self) -> Time {
        Sim::now(self)
    }
    fn alive(&self, node: NodeId) -> bool {
        Sim::alive(self, node)
    }
    fn kill(&mut self, node: NodeId) {
        self.fail_node(node);
    }
    fn revive(&mut self, node: NodeId, app: A) -> bool {
        Sim::revive(self, node, app)
    }
    fn set_inbound_drop(&mut self, node: NodeId, dropping: bool) {
        Sim::set_inbound_drop(self, node, dropping);
    }
    fn request(&mut self, node: NodeId, req: A::Req) -> Option<A::Resp> {
        self.with_app(node, |app, ctx| app.on_request(ctx, req))
    }
    fn settle(&mut self, d: Dur) {
        self.run_for(d);
    }
    fn stats(&self) -> NetStats {
        Sim::stats(self)
    }
}

impl<A: Service + 'static> Deployment<A> for Cluster<A>
where
    A::Msg: Send + 'static,
{
    fn node_count(&self) -> usize {
        Cluster::node_count(self)
    }
    fn now(&self) -> Time {
        Cluster::now(self)
    }
    fn alive(&self, node: NodeId) -> bool {
        Cluster::alive(self, node)
    }
    fn kill(&mut self, node: NodeId) {
        Cluster::kill(self, node);
    }
    fn revive(&mut self, node: NodeId, app: A) -> bool {
        Cluster::revive(self, node, app)
    }
    fn set_inbound_drop(&mut self, node: NodeId, dropping: bool) {
        Cluster::set_inbound_drop(self, node, dropping);
    }
    fn request(&mut self, node: NodeId, req: A::Req) -> Option<A::Resp> {
        Cluster::request(self, node, req)
    }
    /// The one wall-clock wait: workers run free, so letting the
    /// deployment run is letting time pass.
    fn settle(&mut self, d: Dur) {
        std::thread::sleep(std::time::Duration::from_micros(d.as_micros()));
    }
    fn stats(&self) -> NetStats {
        Cluster::stats(self)
    }
}
