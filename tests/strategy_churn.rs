//! Strategy × churn matrix: every one of the four §4 join strategies is
//! run while nodes fail mid-query, asserting the §5.6 quality bounds —
//! recall degrades gracefully (never exceeds 1, never collapses) and
//! precision stays perfect (a failed node can lose answers, but the
//! engine must never fabricate them).

use pier::qp::plan::JoinStrategy;
use pier::qp::semantics::{precision, recall};
use pier::qp::testkit::*;
use pier::simnet::time::Dur;
use pier::simnet::NetConfig;
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

/// One cell of the matrix: run `strategy` on `n` nodes, failing
/// `kill` of them `fail_after` into the query.
fn churn_cell(strategy: JoinStrategy, seed: u64, kill: &[u32], fail_after: Dur) -> (f64, f64) {
    let n = 20;
    let mut sim = stabilized_pier_sim(n, DhtConfig::default(), NetConfig::latency_only(seed));
    let wl = RsWorkload::generate(RsParams {
        s_rows: 60,
        seed,
        ..Default::default()
    });
    publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    let expected = wl.expected(strategy);
    assert!(!expected.is_empty());

    let qid = 40 + strategy as u64;
    // No node count: a Bloom join's combine tree finishes when its root
    // holds the whole key space's filters, not at its deadline.
    let desc = wl.query(qid, 0, strategy);
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(fail_after);
    for &id in kill {
        sim.fail_node(id);
    }
    sim.run_for(Dur::from_secs(150));

    let results: Vec<_> = sim
        .app(0)
        .unwrap()
        .query_results(qid)
        .iter()
        .map(|(_, r)| r)
        .collect();
    (recall(&expected, &results), precision(&expected, &results))
}

#[test]
fn all_strategies_degrade_gracefully_under_churn() {
    for (i, strategy) in JoinStrategy::ALL.into_iter().enumerate() {
        let seed = 40 + i as u64;
        // Fail two non-initiator nodes a few seconds into the query —
        // late enough that the descriptor multicast has spread, early
        // enough that plenty of rehash/fetch work is still in flight.
        let (r, p) = churn_cell(strategy, seed, &[7, 13], Dur::from_millis(3500));
        assert!(
            r <= 1.0 + 1e-9,
            "{}: recall bounded above: {r}",
            strategy.name()
        );
        assert!(
            r > 0.3,
            "{}: most results survive two failures: recall {r}",
            strategy.name()
        );
        assert!(
            p > 0.999,
            "{}: no fabricated tuples: precision {p}",
            strategy.name()
        );
    }
}

#[test]
fn quality_is_perfect_without_churn_and_monotone_in_failures() {
    // Control row of the matrix: the same cells with nobody failing
    // must reach recall 1.0 — pinning that the churn cells above are
    // measuring churn, not some unrelated loss.
    for (i, strategy) in JoinStrategy::ALL.into_iter().enumerate() {
        let seed = 40 + i as u64;
        let (r, p) = churn_cell(strategy, seed, &[], Dur::from_millis(3500));
        assert!(
            (r - 1.0).abs() < 1e-9,
            "{}: full recall without churn: {r}",
            strategy.name()
        );
        assert!((p - 1.0).abs() < 1e-9, "{}: precision {p}", strategy.name());
    }
}
