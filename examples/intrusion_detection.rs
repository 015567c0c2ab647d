//! The §2.1 motivating application: communal network intrusion
//! detection. Runs all three example queries from the paper, written in
//! SQL, over synthetic Snort-style fingerprint feeds published by every
//! node.
//!
//! ```sh
//! cargo run --release --example intrusion_detection
//! ```

use pier::qp::catalog::Catalog;
use pier::qp::plan::{JoinStrategy, QueryDesc};
use pier::qp::sql::parse_query;
use pier::qp::testkit::*;
use pier::simnet::time::Dur;
use pier::simnet::NetConfig;
use pier::workload::intrusion;
use pier_dht::DhtConfig;

fn main() {
    let n = 48;
    let catalog = Catalog::intrusion();
    let mut sim = stabilized_pier_sim(
        n,
        DhtConfig::static_network(),
        NetConfig::paper_baseline(13),
    );

    // Wrapped monitoring tools publish their observations (§2.2's
    // "natural habitat" data, copied into the DHT as soft state).
    let reports = intrusion::intrusions(n * 8, 30, 96, 5);
    let reputations = intrusion::reputations(96, 5);
    let (gateways, robots) = intrusion::gateways_and_robots(n * 2, n * 2, 24, 5);
    publish_round_robin(&mut sim, "intrusions", &reports, 0, Dur::from_secs(100_000));
    publish_round_robin(
        &mut sim,
        "reputation",
        &reputations,
        0,
        Dur::from_secs(100_000),
    );
    publish_round_robin(
        &mut sim,
        "spamGateways",
        &gateways,
        0,
        Dur::from_secs(100_000),
    );
    publish_round_robin(&mut sim, "robots", &robots, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);

    let queries = [
        (
            "compromised subnets (spam gateway + web robot in one domain)",
            "SELECT S.source FROM spamGateways AS S, robots AS R \
             WHERE S.smtpGWDomain = R.clientDomain",
        ),
        (
            "widespread attacks (fingerprints reported > 10 times)",
            "SELECT I.fingerprint, count(*) AS cnt FROM intrusions I \
             GROUP BY I.fingerprint HAVING cnt > 10",
        ),
        (
            "reputation-weighted attack counts",
            "SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt \
             FROM intrusions I, reputation R WHERE R.address = I.address \
             GROUP BY I.fingerprint HAVING wcnt > 10",
        ),
    ];

    for (qid, (label, sql)) in queries.iter().enumerate() {
        let op = parse_query(sql, &catalog, JoinStrategy::SymmetricHash).expect("parse");
        let desc = QueryDesc::one_shot(qid as u64 + 1, 0, op);
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
        println!("\n=== {label}\n    {sql}");
        let mut rows = rows_of(&results);
        rows.sort_by_key(|t| t.to_string());
        rows.truncate(8);
        for row in &rows {
            println!("    {row}");
        }
        println!("    ... {} rows total", results.len());
    }
}
