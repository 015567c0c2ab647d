//! Tenancy governance and observability, end to end: admission control
//! rejects over-budget installs with a typed error, per-tenant token
//! buckets shed a hot tenant's flood without costing co-tenants recall,
//! and the metrics snapshot's `net` section equals the engine's
//! `NetStats` ground truth — byte-for-byte, on both the deterministic
//! simulator and the wall-clock actor-runtime cluster.

use pier::qp::metrics::net_stats_json;
use pier::qp::plan::JoinStrategy;
use pier::qp::semantics::same_multiset;
use pier::qp::tenant::{AdmissionError, Quota};
use pier::qp::testkit::*;
use pier::qp::{Expr, PierNode, QueryDesc, QueryOp, ScanSpec, TableRate, Tuple, Value};
use pier::simnet::time::Dur;
use pier::simnet::{Deployment, NetConfig, NodeId};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

fn lifetime() -> Dur {
    Dur::from_secs(100_000)
}

fn scan_query(qid: u64, initiator: u32, table: &str, tenant: u32) -> QueryDesc {
    let scan = ScanSpec::new(table, 2, 0);
    QueryDesc::standing(
        qid,
        initiator,
        QueryOp::Scan {
            scan,
            project: vec![Expr::col(0), Expr::col(1)],
        },
        None,
    )
    .with_tenant(tenant)
}

fn rows(lo: i64, hi: i64) -> Vec<Tuple> {
    (lo..hi)
        .map(|i| Tuple::new(vec![Value::I64(i), Value::I64(i * 10)]))
        .collect()
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

#[test]
fn install_rejected_when_priced_over_budget() {
    let n = 6;
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(11));
    sim.run_for(Dur::from_secs(2));

    // Register the same table rate and tenant quota everywhere, sized
    // so ONE standing scan fits the budget and a second does not.
    let rate = TableRate {
        rows_per_sec: 10.0,
        avg_tuple_bytes: 40.0,
    };
    let priced = sim
        .with_node(0, |node, _| {
            node.governor.set_table_rate(pier_dht::ns_of("T"), rate);
            node.governor.price(&scan_query(900, 0, "T", 5))
        })
        .unwrap();
    assert!(priced > 0.0, "a scan over a live table must cost something");
    let quota = Quota {
        max_priced_bytes_per_sec: priced * 1.5,
        ..Quota::unlimited()
    };
    for id in 0..n as NodeId {
        sim.with_node(id, |node, _| {
            node.governor.set_table_rate(pier_dht::ns_of("T"), rate);
            node.governor.set_quota(5, quota);
        });
    }

    // First query: within budget, admitted, installs overlay-wide.
    let ok = sim
        .with_node(0, |node, ctx| {
            node.try_submit(ctx, scan_query(901, 0, "T", 5))
        })
        .unwrap();
    assert!((ok.unwrap() - priced).abs() < 1e-9);
    sim.run_for(Dur::from_secs(5));
    for id in 0..n as NodeId {
        assert!(sim.node(id).unwrap().has_query(901), "node {id}");
    }

    // Second query: over budget — typed rejection, nothing on the wire.
    let bytes_before = sim.net_stats().bytes;
    let err = sim
        .with_node(0, |node, ctx| {
            node.try_submit(ctx, scan_query(902, 0, "T", 5))
        })
        .unwrap()
        .unwrap_err();
    match err {
        AdmissionError::PricedTraffic {
            tenant,
            committed,
            budget,
            ..
        } => {
            assert_eq!(tenant, 5);
            assert!((committed - priced).abs() < 1e-9);
            assert!((budget - priced * 1.5).abs() < 1e-9);
        }
        other => panic!("expected PricedTraffic, got {other:?}"),
    }
    sim.run_for(Dur::from_secs(5));
    assert_eq!(
        sim.net_stats().bytes,
        bytes_before,
        "a rejected submission must not reach the wire"
    );
    assert!(!sim.node(0).unwrap().has_query(902));
    assert_eq!(sim.node(0).unwrap().metrics.rejected_installs, 1);

    // Defense in depth: bypassing `try_submit` with a raw multicast
    // still gets refused at install time on every node.
    sim.with_node(0, |node, ctx| node.submit(ctx, scan_query(903, 0, "T", 5)));
    sim.run_for(Dur::from_secs(5));
    for id in 0..n as NodeId {
        let node = sim.node(id).unwrap();
        assert!(!node.has_query(903), "node {id} must refuse the install");
        assert_eq!(node.metrics.rejected_installs, if id == 0 { 2 } else { 1 });
    }

    // Standing-query cap: a typed StandingQueries rejection.
    for id in 0..n as NodeId {
        sim.with_node(id, |node, _| {
            node.governor.set_quota(
                6,
                Quota {
                    max_standing: 0,
                    ..Quota::unlimited()
                },
            )
        });
    }
    let err = sim
        .with_node(0, |node, ctx| {
            node.try_submit(ctx, scan_query(904, 0, "T", 6))
        })
        .unwrap()
        .unwrap_err();
    assert!(matches!(
        err,
        AdmissionError::StandingQueries { tenant: 6, .. }
    ));
}

/// A query is committed once however often its install arrives: the same
/// qid submitted twice (a re-delivered multicast) installs once on every
/// node, counts one admitted install and no rejection, and holds the
/// tenant's one standing slot, so a second qid is refused.
#[test]
fn a_resubmitted_qid_installs_once_and_holds_its_slot() {
    let n = 4;
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(5));
    sim.run_for(Dur::from_secs(2));
    let quota = Quota {
        max_standing: 1,
        ..Quota::unlimited()
    };
    for id in 0..n as NodeId {
        sim.with_node(id, |node, _| node.governor.set_quota(3, quota));
    }
    let admitted = sim.with_node(0, |node, ctx| {
        node.try_submit(ctx, scan_query(31, 0, "T", 3))
    });
    assert!(admitted.unwrap().is_ok());
    sim.run_for(Dur::from_secs(5));
    sim.with_node(0, |node, ctx| node.submit(ctx, scan_query(31, 0, "T", 3)));
    sim.run_for(Dur::from_secs(5));
    for id in 0..n as NodeId {
        let node = sim.node(id).unwrap();
        assert_eq!(node.installed_query_count(), 1, "node {id}");
        assert_eq!(node.metrics.admitted_installs, 1, "node {id}");
        assert_eq!(node.metrics.rejected_installs, 0, "node {id}");
    }
    let refused = sim.with_node(0, |node, ctx| {
        node.try_submit(ctx, scan_query(32, 0, "T", 3))
    });
    assert_eq!(
        refused.unwrap(),
        Err(AdmissionError::StandingQueries {
            tenant: 3,
            installed: 1,
            limit: 1
        })
    );
}

// ---------------------------------------------------------------------
// Backpressure: hot-tenant flood vs co-tenant recall
// ---------------------------------------------------------------------

#[test]
fn token_bucket_shedding_keeps_cotenant_recall() {
    let n = 8;
    let mut sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(23));
    sim.run_for(Dur::from_secs(2));

    // The hot tenant (2) gets a tight publish bucket on every node; the
    // co-tenant (1) is unquota'd and must never be affected.
    let hot_quota = Quota {
        publish_bytes_per_sec: 10.0,
        publish_burst_bytes: 100.0,
        ..Quota::unlimited()
    };
    for id in 0..n as NodeId {
        sim.with_node(id, |node, _| node.governor.set_quota(2, hot_quota));
    }

    // Standing scans: the co-tenant watches "CO", the hot tenant
    // watches "FLOOD". Installed before any publish, so every accepted
    // row must flow through incrementally.
    sim.with_node(0, |node, ctx| {
        node.try_submit(ctx, scan_query(11, 0, "CO", 1)).unwrap();
        node.try_submit(ctx, scan_query(22, 0, "FLOOD", 2)).unwrap();
    });
    sim.run_for(Dur::from_secs(5));

    // The flood: one huge burst from the hot tenant...
    let flood = rows(1000, 1400);
    let report = sim
        .with_node(2, |node, ctx| {
            node.publish_rows_from(ctx, 2, "FLOOD", flood, 0, lifetime())
        })
        .unwrap();
    assert!(
        report.shed > 300,
        "the bucket must shed most of a 400-row burst: {report:?}"
    );
    assert!(report.accepted >= 1, "burst allowance admits a few rows");
    assert_eq!(report.accepted + report.shed, 400);

    // ...interleaved with the co-tenant's modest publication.
    let co = rows(0, 50);
    let co_report = sim
        .with_node(1, |node, ctx| {
            node.publish_rows_from(ctx, 1, "CO", co, 0, lifetime())
        })
        .unwrap();
    assert_eq!(co_report.shed, 0, "an unquota'd co-tenant is never shed");
    assert_eq!(co_report.accepted, 50);
    sim.run_for(Dur::from_secs(30));

    // Co-tenant recall is 1.0: all 50 rows reached its standing query.
    let co_results = sim.node(0).unwrap().query_results(11);
    assert_eq!(
        co_results.len(),
        50,
        "co-tenant recall must be 1.0 under the flood"
    );
    // The hot tenant's accepted rows arrive; the shed ones never do.
    let hot_results = sim.node(0).unwrap().query_results(22);
    assert_eq!(hot_results.len(), report.accepted);

    // The observable surface agrees with the report.
    let snap = metrics_snapshot(&sim);
    assert_eq!(snap.shed_publishes(), report.shed as u64);
    let publisher = &snap.nodes[2].registry;
    assert_eq!(publisher.shed_publishes, report.shed as u64);
    assert!(publisher.shed_bytes > 0);
}

// ---------------------------------------------------------------------
// Snapshot vs NetStats ground truth
// ---------------------------------------------------------------------

/// Run the workload join by typed request, then hold the
/// request-gathered snapshot to the backend's own `NetStats` — typed
/// equality and byte-for-byte JSON equality — and to what the join did.
fn snapshot_matches_netstats(net: &mut impl Deployment<PierNode>, tick: Dur) {
    let wl = RsWorkload::generate(RsParams {
        s_rows: 15,
        seed: 77,
        ..Default::default()
    });
    publish_by_request(net, "R", &wl.r, 0, lifetime());
    publish_by_request(net, "S", &wl.s, 0, lifetime());
    net.settle(tick.saturating_mul(8));
    // Returns once the wire has gone quiet: result count stable.
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let results = run_query_by_request(net, 0, desc, tick);
    assert!(same_multiset(
        &wl.expected(JoinStrategy::SymmetricHash),
        &rows_of(&results)
    ));

    let snap = deployment_snapshot(net);
    let truth = net.stats();
    assert_eq!(snap.net, truth, "snapshot == engine NetStats (typed)");
    assert_eq!(
        net_stats_json(&snap.net),
        net_stats_json(&truth),
        "snapshot == engine NetStats (byte-for-byte JSON)"
    );
    assert!(snap.to_json().contains(&net_stats_json(&truth)));

    // The per-query surface saw the join: every node installed it, and
    // the registry's result counter covers the initiator's multiset.
    assert_eq!(snap.nodes.len(), net.node_count());
    for node in &snap.nodes {
        assert_eq!(node.registry.admitted_installs, 1, "node {}", node.node);
        assert!(!node.occupancy.is_empty(), "published base state is live");
    }
    assert_eq!(
        snap.total(|q| q.results_shipped),
        results.len() as u64,
        "results_shipped across nodes is the initiator's result count"
    );
    assert!(
        snap.total(|q| q.rehash_bytes) > 0,
        "the join rehashed state"
    );
}

#[test]
fn metrics_snapshot_matches_netstats_on_sim() {
    let mut sim = stabilized_pier_sim(6, DhtConfig::static_network(), NetConfig::latency_only(77));
    snapshot_matches_netstats(&mut sim, Dur::from_secs(1));
    // Reading the nodes in place gives the same snapshot.
    assert_eq!(
        metrics_snapshot(&sim).to_json(),
        deployment_snapshot(&mut sim).to_json()
    );
}

#[test]
fn metrics_snapshot_matches_netstats_on_cluster() {
    let mut cluster = stabilized_pier_cluster(6, DhtConfig::static_network(), 77);
    snapshot_matches_netstats(&mut cluster, Dur::from_millis(50));
}
