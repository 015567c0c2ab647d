//! Workspace-level integration tests: the full stack (simnet → DHT →
//! query processor) exercised through the umbrella `pier` crate, on
//! grown (not pre-stabilized) overlays, across topologies, and on the
//! actor-runtime cluster.

use pier::qp::plan::JoinStrategy;
use pier::qp::semantics::{recall, same_multiset};
use pier::qp::testkit::*;
use pier::qp::PierNode;
use pier::simnet::time::Dur;
use pier::simnet::topology::TransitStub;
use pier::simnet::{Deployment, NetConfig, Sim};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;
use std::sync::Arc;

fn small_workload(seed: u64) -> RsWorkload {
    RsWorkload::generate(RsParams {
        s_rows: 20,
        seed,
        ..Default::default()
    })
}

#[test]
fn join_on_an_incrementally_grown_overlay() {
    // Build the overlay through the real join protocol rather than the
    // balanced bootstrap, then run the workload query on it.
    let n = 10u32;
    let mut sim: Sim<PierNode> = Sim::new(NetConfig::latency_only(31));
    sim.add_node(PierNode::new(DhtConfig::default(), 0, None));
    for i in 1..n {
        sim.add_node(PierNode::new(DhtConfig::default(), i, Some(0)));
        sim.run_for(Dur::from_secs(3));
    }
    sim.run_for(Dur::from_secs(10));

    let wl = small_workload(3);
    publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    sim.run_for(Dur::from_secs(10));

    let expected = wl.expected(JoinStrategy::SymmetricHash);
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    assert!(
        same_multiset(&expected, &rows_of(&results)),
        "expected {} got {}",
        expected.len(),
        results.len()
    );
}

#[test]
fn join_on_transit_stub_topology() {
    let n = 24;
    let net = NetConfig {
        topology: Arc::new(TransitStub::paper_default(n as u32, 5)),
        inbound_bps: Some(10e6),
        seed: 5,
    };
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), net);
    let wl = small_workload(5);
    publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    let expected = wl.expected(JoinStrategy::SymmetricHash);
    let desc = wl.query(2, 1, JoinStrategy::SymmetricHash);
    let results = run_query(&mut sim, 1, desc, Dur::from_secs(120));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

#[test]
fn join_over_chord_overlay_end_to_end() {
    let cfg = DhtConfig::static_network().with_overlay(pier_dht::OverlayKind::Chord);
    let mut sim = stabilized_pier_sim(16, cfg, NetConfig::latency_only(9));
    let wl = small_workload(9);
    publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    let expected = wl.expected(JoinStrategy::SymmetricHash);
    let desc = wl.query(3, 0, JoinStrategy::SymmetricHash);
    let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
    assert!(same_multiset(&expected, &rows_of(&results)));
}

#[test]
fn query_during_churn_degrades_gracefully() {
    // Fail nodes mid-query: recall may drop below 1 but never above, and
    // precision stays perfect (we never fabricate tuples).
    let n = 20;
    let mut sim = stabilized_pier_sim(n, DhtConfig::default(), NetConfig::latency_only(13));
    let wl = RsWorkload::generate(RsParams {
        s_rows: 60,
        seed: 13,
        ..Default::default()
    });
    publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(&mut sim);
    let expected = wl.expected(JoinStrategy::SymmetricHash);

    let qid = 4;
    let desc = wl.query(qid, 0, JoinStrategy::SymmetricHash);
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    sim.run_for(Dur::from_millis(3500));
    sim.fail_node(7);
    sim.fail_node(11);
    sim.run_for(Dur::from_secs(120));

    let results: Vec<_> = sim
        .app(0)
        .unwrap()
        .query_results(qid)
        .iter()
        .map(|(_, r)| r)
        .collect();
    let r = recall(&expected, &results);
    let p = pier::qp::semantics::precision(&expected, &results);
    assert!(r <= 1.0 + 1e-9);
    assert!(r > 0.3, "most results still arrive: recall {r}");
    assert!(p > 0.999, "no fabricated results: precision {p}");
}

/// The Fig. 8 configuration in miniature, on any backend: publish by
/// request, run the join until its answer is stable, and report the
/// time to the 30th tuple and the result count.
fn deployed_join(mut net: impl Deployment<PierNode>, tick: Dur) -> (Option<Dur>, usize) {
    let wl = RsWorkload::generate(RsParams {
        s_rows: 40,
        seed: 8,
        ..Default::default()
    });
    publish_by_request(&mut net, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_by_request(&mut net, "S", &wl.s, 0, Dur::from_secs(100_000));
    net.settle(tick.saturating_mul(8));
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let results = run_query_by_request(&mut net, 0, desc, tick);
    (time_to_kth(&results, 30), results.len())
}

#[test]
fn threaded_cluster_runs_the_same_query() {
    // Real threads, wall clock — and the same body on the simulator.
    let cfg = DhtConfig::static_network;
    let backends = [
        deployed_join(stabilized_pier_cluster(8, cfg(), 7), Dur::from_millis(40)),
        deployed_join(
            stabilized_pier_sim(8, cfg(), NetConfig::latency_only(7)),
            Dur::from_secs(1),
        ),
    ];
    for (t30, count) in backends {
        assert!(count >= 30, "got {count} results");
        assert!(t30.is_some());
    }
}

#[test]
fn sim_and_reference_agree_across_seeds_and_strategies() {
    // A randomized matrix: several seeds × strategies on modest networks.
    for (i, strategy) in JoinStrategy::ALL.iter().enumerate() {
        let seed = 100 + i as u64;
        let wl = small_workload(seed);
        let mut sim = stabilized_pier_sim(
            12,
            DhtConfig::static_network(),
            NetConfig::latency_only(seed),
        );
        publish_round_robin(&mut sim, "R", &wl.r, 0, Dur::from_secs(100_000));
        publish_round_robin(&mut sim, "S", &wl.s, 0, Dur::from_secs(100_000));
        settle_publish(&mut sim);
        let expected = wl.expected(*strategy);
        let desc = wl.query(10 + i as u64, 0, *strategy);
        let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
        assert!(
            same_multiset(&expected, &rows_of(&results)),
            "{} seed {seed}",
            strategy.name()
        );
    }
}
