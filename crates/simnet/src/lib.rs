//! # pier-simnet
//!
//! Network engines for PIER (Huebsch et al., VLDB 2003).
//!
//! The paper runs the *same code base* both under simulation (up to 10,000
//! nodes) and deployed on a 64-PC cluster (§5.2). This crate provides that
//! split as **one engine, two clocks, one driver**: a node is an
//! event-driven automaton implementing [`App`] (plus [`Service`] for
//! typed requests), and it runs unchanged on
//!
//! * [`Sim`] — the deterministic discrete-event simulator: a virtual
//!   microsecond clock, a pluggable latency [`topology::Topology`], and a
//!   flow-level bandwidth model that queues messages on the receiver's
//!   inbound link (the paper's "congestion occurs at the last hop"
//!   model). It owns one event core per shard and picks its run loop from
//!   the core count: one core runs inline on the caller's thread, several
//!   run under the conservative time-window barrier of [`sharded`] —
//!   bit-identical results at any shard count, for the
//!   10^4-node-and-beyond runs a single core can't sustain;
//! * [`cluster::Cluster`] — the same event core paced by the wall
//!   clock: a fixed pool of worker threads, each owning the core of
//!   its share of the nodes and one inbox, no barrier; our stand-in
//!   for the paper's real cluster deployment (§5.8). Consumers talk to
//!   nodes only through typed [`NodeHandle`] requests.
//!
//! [`Deployment`] is the one surface a harness drives either through —
//! kill / revive / drop windows / typed requests / settle / stats — so a
//! test, an experiment, or a seeded [`FaultScript`] is written once and
//! instantiated per backend.
//!
//! Message sizes are modeled by the [`Wire`] trait so that bandwidth and
//! traffic accounting reflect on-the-wire bytes rather than Rust object
//! sizes.

pub mod app;
pub mod cluster;
pub mod deployment;
pub mod engine;
pub mod fault;
pub mod sharded;
pub mod stats;
pub mod time;
pub mod topology;

pub use app::{App, Ctx, Service};
pub use cluster::{Cluster, NodeHandle};
pub use deployment::Deployment;
pub use engine::{NetConfig, Sim};
pub use fault::{Fault, FaultDriver, FaultScript, Scheduled};
pub use sharded::{ShardMap, ShardedSim};
pub use stats::NetStats;
pub use time::{Dur, Time};
pub use topology::{FullMesh, Topology, TransitStub, TransitStubParams};

/// Identifier of a physical node slot in an engine.
///
/// Node ids are dense indices assigned in creation order; they double as
/// the "IP address" of the PIER node in DHT routing tables.
pub type NodeId = u32;

/// On-the-wire size model for messages.
///
/// Engines charge `wire_size()` bytes against link bandwidth and traffic
/// statistics. Implementations should include their own notion of header
/// overhead; the engine adds nothing.
pub trait Wire {
    /// Number of bytes this message occupies on the wire.
    fn wire_size(&self) -> usize;
}

impl Wire for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl Wire for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}
