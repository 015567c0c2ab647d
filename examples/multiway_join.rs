//! Multi-way join pipelines: a 3-table SQL query planned with the
//! cost-based join-order search, executed as a left-deep chain of
//! symmetric-hash stages over the DHT, and cross-checked against the
//! centralized reference evaluator.
//!
//! ```sh
//! cargo run --release --example multiway_join
//! ```

use pier::qp::catalog::{Catalog, TableStats};
use pier::qp::optimizer::{CostParams, Objective};
use pier::qp::plan::{QueryDesc, QueryOp};
use pier::qp::planner::plan_sql;
use pier::qp::semantics::{reference_eval, same_multiset};
use pier::qp::testkit::*;
use pier::simnet::time::Dur;
use pier::simnet::NetConfig;
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

const SQL: &str = "SELECT R.pkey, S.pkey, T.pkey FROM R, S, T \
     WHERE R.num1 = S.pkey AND S.num3 = T.pkey \
     AND R.num2 > 49 AND T.num2 > 49";

fn main() {
    let wl = RsWorkload::generate(RsParams {
        s_rows: 40,
        t_rows: 60,
        ..Default::default()
    });
    let mut catalog = Catalog::workload();
    for (name, rows, bytes) in [
        ("R", wl.r.len(), 1024),
        ("S", wl.s.len(), 100),
        ("T", wl.t.len(), 100),
    ] {
        catalog.set_stats(
            name,
            TableStats {
                rows: rows as u64,
                avg_tuple_bytes: bytes,
            },
        );
    }

    // The planner parses the 3-table query, runs the greedy join-order
    // search over catalog cardinalities, and lowers to a left-deep
    // pipeline — the wide R table is joined last.
    let op = plan_sql(
        SQL,
        &catalog,
        &CostParams::paper_baseline(16.0),
        Objective::Traffic,
    )
    .expect("plan");
    let QueryOp::Join { join: m, .. } = &op else {
        panic!("expected a pipeline");
    };
    let order: Vec<&str> = std::iter::once(m.left.table.as_str())
        .chain(m.stages.iter().map(|s| s.right.table.as_str()))
        .collect();
    println!("pipeline order: {}", order.join(" -> "));

    // Run it on a 16-node simulated overlay.
    let mut sim = stabilized_pier_sim(16, DhtConfig::static_network(), NetConfig::latency_only(1));
    for (table, rows) in [("R", &wl.r), ("S", &wl.s), ("T", &wl.t)] {
        publish_round_robin(&mut sim, table, rows, 0, Dur::from_secs(100_000));
    }
    settle_publish(&mut sim);
    let results = run_query(
        &mut sim,
        0,
        QueryDesc::one_shot(1, 0, op.clone()),
        Dur::from_secs(90),
    );

    let expected = reference_eval(&op, &wl.tables());
    println!(
        "distributed results: {} (reference: {})",
        results.len(),
        expected.len()
    );
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "pipeline output must match the reference multiset"
    );
    println!("multiset equality with the centralized reference: ok");
}
