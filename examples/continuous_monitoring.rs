//! Continuous queries over live feeds (§7's "continuous queries over
//! streams", built as an extension): a windowed join correlating live
//! packet-trace streams, with window eviction implemented by DHT soft
//! state.
//!
//! ```sh
//! cargo run --release --example continuous_monitoring
//! ```

use pier::qp::expr::Expr;
use pier::qp::plan::{JoinSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec, Tenure};
use pier::qp::testkit::*;
use pier::simnet::time::Dur;
use pier::simnet::NetConfig;
use pier::workload::intrusion;
use pier_dht::DhtConfig;

fn main() {
    let n = 32;
    let mut sim = stabilized_pier_sim(
        n,
        DhtConfig::static_network(),
        NetConfig::paper_baseline(23),
    );
    settle_publish(&mut sim);

    // Continuous self-join of the packet feed on destination port: pairs
    // of hosts hitting the same port within a 60 s window ("fingerprint"
    // correlation in the spirit of §2.1). packets(id, src, dst, port, b).
    let left = ScanSpec::new("packets", 5, 0).with_join_col(3);
    let right = ScanSpec::new("packets2", 5, 0).with_join_col(3);
    let mut join = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    join.project = vec![Expr::col(1), Expr::col(6), Expr::col(3)];
    let mut desc = QueryDesc::one_shot(1, 0, QueryOp::Join { join, agg: None });
    desc.tenure = Tenure::Windowed(Dur::from_secs(60));
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_secs(5));

    // Stream three batches of packets, 40 s apart, into both feeds.
    for batch in 0u64..3 {
        let pkts = intrusion::packet_trace(30, 12, 100 + batch);
        publish_round_robin(&mut sim, "packets", &pkts, 0, Dur::from_secs(120));
        let pkts2 = intrusion::packet_trace(30, 12, 200 + batch);
        publish_round_robin(&mut sim, "packets2", &pkts2, 0, Dur::from_secs(120));
        sim.run_for(Dur::from_secs(40));
        let so_far = sim.app(0).unwrap().query_results(1).len();
        println!("t={:6}: {} correlated host pairs so far", sim.now(), so_far);
    }

    // Matches only form within the 60 s window: batch 0 never joins
    // batch 2 because the rehashed state ages out of the DHT.
    let results = sim.app(0).unwrap().query_results(1);
    println!(
        "\nfinal: {} correlated pairs; window eviction kept stale state out",
        results.len()
    );
    for (t, row) in results.iter().take(5) {
        println!("  {t}  {row}");
    }
}
