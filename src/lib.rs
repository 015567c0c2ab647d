//! # PIER — Peer-to-Peer Information Exchange and Retrieval
//!
//! A reproduction of *"Querying the Internet with PIER"* (Huebsch,
//! Hellerstein, Lanham, Loo, Shenker, Stoica — VLDB 2003): a relational
//! query engine that scales to thousands of nodes by running over a
//! distributed hash table.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! * [`simnet`] — the network engine under two clocks: the
//!   deterministic simulator and the wall-clock cluster, behind one
//!   `Deployment` driver.
//! * [`dht`] — CAN and Chord overlays, storage manager, provider,
//!   content-based multicast, soft state.
//! * [`qp`] — the PIER query processor: tuples, expressions, the
//!   push-based dataflow engine, four distributed join strategies,
//!   aggregation, SQL parsing, and the cost-based strategy optimizer.
//! * [`workload`] — synthetic data generators for the paper's evaluation.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, the repository
//! [README](../../../README.md) for the architecture overview and the
//! experiment-binary index, and [DESIGN.md](../../../DESIGN.md) for the
//! complete system inventory and the paper-section → module map.

pub use pier_core as qp;
pub use pier_dht as dht;
pub use pier_simnet as simnet;
pub use pier_workload as workload;
