//! The declarative top of the stack: SQL in, cost-optimized distributed
//! execution out. Shows the §5.5.1-based optimizer switching join
//! strategies with the objective and the statistics, then runs the
//! chosen plan and cross-checks it.
//!
//! ```sh
//! cargo run --release --example planner_demo
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
use std::collections::HashMap;

const SQL: &str = "SELECT R.pkey, S.pkey, R.pad FROM R, S \
     WHERE R.num1 = S.pkey AND R.num2 > 49 AND S.num2 > 49 \
     AND f(R.num3, S.num3) > 49";

fn main() {
    let wl = RsWorkload::generate(RsParams {
        s_rows: 40,
        ..Default::default()
    });
    let mut catalog = Catalog::workload();
    catalog.set_stats(
        "R",
        TableStats {
            rows: wl.r.len() as u64,
            avg_tuple_bytes: 1024,
        },
    );
    catalog.set_stats(
        "S",
        TableStats {
            rows: wl.s.len() as u64,
            avg_tuple_bytes: 100,
        },
    );
    let net_params = CostParams::paper_baseline(64.0);

    for objective in [Objective::Latency, Objective::Traffic] {
        let op = plan_sql(SQL, &catalog, &net_params, objective).expect("plan");
        let chosen = match &op {
            QueryOp::Join { join: j, .. } => j.strategy,
            _ => unreachable!(),
        };
        println!("objective {objective:?} -> strategy: {}", chosen.name());

        // Run the optimized plan and sanity-check against the reference.
        let mut tables = HashMap::new();
        tables.insert("R".to_string(), wl.r.clone());
        tables.insert("S".to_string(), wl.s.clone());
        let expected = reference_eval(&op, &tables);

        let mut sim = stabilized_pier_sim(
            64,
            DhtConfig::static_network(),
            NetConfig::paper_baseline(1),
        );
        publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
        publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
        settle_publish(&mut sim);
        let desc = QueryDesc::one_shot(objective as u64 + 1, 0, op);
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(200));
        println!(
            "  {} results in {:?}, matches reference: {}",
            results.len(),
            time_to_last(&results),
            same_multiset(&expected, &rows_of(&results))
        );
    }
}
