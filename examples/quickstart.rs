//! Quickstart: bring up a simulated PIER network, publish two tables,
//! and run the paper's §5.1 workload query with each join strategy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pier::qp::plan::{JoinStrategy, QueryOp};
use pier::qp::semantics::{recall, same_multiset};
use pier::qp::testkit::*;
use pier::simnet::time::Dur;
use pier::simnet::NetConfig;
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

fn main() {
    // 1. A 64-node PIER network: full mesh, 100 ms latency, 10 Mbps
    //    inbound per node — the paper's baseline network.
    let n = 64;

    // 2. The §5.1 synthetic workload: R (10×) ⨝ S with 50% selections
    //    and 1 KB padded results.
    let wl = RsWorkload::generate(RsParams {
        s_rows: 60,
        ..Default::default()
    });
    println!(
        "workload: |R| = {} tuples, |S| = {} tuples, {:.1} MB total",
        wl.r.len(),
        wl.s.len(),
        wl.total_bytes() as f64 / 1e6
    );

    for strategy in JoinStrategy::ALL {
        let mut sim =
            stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::paper_baseline(7));
        // 3. Every node publishes its local partition into the DHT
        //    (soft state: items carry lifetimes).
        publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
        publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
        settle_publish(&mut sim);

        // 4. Node 0 submits the query; the descriptor is multicast to
        //    all nodes and results flow straight back to node 0.
        let desc = pier::qp::plan::QueryDesc::one_shot(
            1,
            0,
            QueryOp::Join {
                join: wl.join_spec(strategy),
                agg: None,
            },
        );
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(300));

        // 5. Compare with the centralized reference evaluation.
        let expected = wl.expected(strategy);
        let actual = rows_of(&results);
        println!(
            "{:18} -> {:4} results, recall {:.3}, 30th tuple at {:?}, last at {:?}, exact: {}",
            strategy.name(),
            results.len(),
            recall(&expected, &actual),
            time_to_kth(&results, 30),
            time_to_last(&results),
            same_multiset(&expected, &actual),
        );
    }
}
