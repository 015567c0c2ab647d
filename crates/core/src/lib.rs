//! # pier-core
//!
//! The PIER query processor (Figure 1's middle tier): a push-based
//! "boxes-and-arrows" dataflow engine executing relational queries over
//! the DHT. Implements the four distributed join strategies of §4
//! (symmetric hash, Fetch Matches, symmetric semi-join rewrite, Bloom
//! rewrite), left-deep multi-way join pipelines (chained symmetric-hash
//! stages with per-stage rehash namespaces), DHT-based grouped
//! aggregation, continuous/windowed queries, an N-table SQL front-end,
//! a catalog, and a cost-based optimizer covering both strategy choice
//! and greedy join-order search.

pub mod agg;
pub mod bloom;
pub mod catalog;
pub mod expr;
pub mod item;
pub mod metrics;
pub mod node;
pub mod optimizer;
pub mod plan;
pub mod planner;
pub mod semantics;
pub mod sql;
pub mod tenant;
pub mod testkit;
pub mod tuple;
pub mod value;

pub use bloom::BloomFilter;
pub use catalog::{Catalog, TableDef, TableStats};
pub use expr::{BinOp, Expr, Func};
pub use item::{PierMsg, QpItem, Side};
pub use metrics::{MetricsRegistry, MetricsSnapshot, NodeMetrics, QueryMetrics};
pub use node::{NodeRequest, NodeResponse, PierNode, PublishReport, Results};
pub use optimizer::{
    choose_strategy, greedy_join_order, price_query, CostParams, JoinStats, Objective, TableCard,
    TableRate,
};
pub use plan::{
    AggCall, AggFunc, AggSpec, JoinSpec, JoinStage, JoinStrategy, PipelineSchema, QueryDesc,
    QueryOp, ScanSpec, StageView,
};
pub use planner::plan_sql;
pub use sql::parse_query;
pub use tenant::{AdmissionError, Quota, TenantGovernor, TenantId, TokenBucket};
pub use tuple::{ColType, Field, Schema, SchemaRef, Tuple};
pub use value::Value;
